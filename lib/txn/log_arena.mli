(** Chained-block, append-only persistent log (paper Section 4.1).

    The log area is a chain of fixed-size {e log blocks} allocated from the
    persistent heap on demand.  Records are appended sequentially; each
    record is [{size; timestamp; checksum}] metadata followed by 16-byte
    entries [(target address, value)].  When a record outgrows its block, a
    {e marker entry} embeds a forward block pointer and the record continues
    in a fresh block, exactly as in Figure 6.  The checksum covers metadata
    (size, timestamp), entries and markers, and doubles as the commit
    status: recovery replays records from the head and stops at the first
    mismatch (Section 4.1, "the checksum also serves as the transaction's
    commit status").  Timestamps rise strictly along a log, so the scan
    also stops at the first record no newer than its predecessor — a
    stale record in a recycled block the chain reaches before its fresh
    header is durable.

    Appends are plain stores — nothing is flushed until {!commit_record},
    which persists the whole record with one flush run and a single fence.

    {!compact} implements the reclamation copy-and-splice of Section 4.2:
    fresh entries are copied into new blocks, the new chain is made live by
    one atomic head-pointer switch, and stale blocks return to the heap —
    two fences per cycle, crash-safe at every point. *)

open Specpmt_pmem
open Specpmt_pmalloc

type t

type entry_pos = int
(** Absolute address of an entry's value cell, for in-place freshening. *)

val create : Heap.t -> head_slot:int -> block_bytes:int -> t
(** Fresh empty log; persists the head pointer in root slot [head_slot]. *)

type tail
(** Where a log's valid prefix ends, as found by {!recover_scan},
    {!recover_collect}, {!coalesce} or {!replay}: the log's head slot
    and block size, its chain head, and the block and position where
    appends resume. *)

val attach : Heap.t -> tail:tail -> t
(** Reattach after a crash at the [tail] that the recovery scan of this
    log returned: resume appending at the end of the valid prefix,
    without walking the log again.  The block list is rebuilt by
    following the chain pointers (one load per block), and an
    end-of-log sentinel is persisted at the append point.  A [tail]
    from a slot that held no log creates a fresh one.

    The tail stays exact as long as nothing has stored into the log's
    blocks since the scan.  Recovery satisfies this: it stores only to
    cells that log entries target, and no such cell lies in a log block
    (log blocks come from the zone of
    {!Specpmt_pmalloc.Heap.alloc_log}). *)

(** {1 Appending} *)

val begin_record : t -> unit
(** Open a record.  At most one record may be open. *)

val add_entry : t -> target:Addr.t -> value:int -> entry_pos
(** Append an entry to the open record (plain stores, no persistence). *)

val set_entry_value : t -> entry_pos -> int -> unit
(** Overwrite the value of an already-appended entry of the open record —
    write-set indexing keeps one entry per datum per transaction. *)

val abandon_record : t -> unit
(** Drop the open record; only legal while it has no entries.  Read-only
    transactions must use this instead of committing a zero-entry record,
    which would read as the end-of-log sentinel. *)

val commit_record :
  ?fence:bool -> ?tentative:bool -> t -> timestamp:int -> unit
(** Seal the open record: write metadata with the checksum commit marker,
    flush every line of the record, and issue one fence.  [~fence:false]
    skips the fence — used by the hardware bulk-copy engine, whose flushes
    are persistent on write-pending-queue acceptance (ADR) and whose
    ordering is enforced by the engine itself (Section 5.1).

    [~tentative:true] is the group-commit path: the record is written with
    a deliberately poisoned checksum and neither flushed nor fenced, so it
    stays invisible to every scan no matter which of its lines a crash
    persists.  {!seal_tentative} later patches the true checksums and
    persists the whole batch under one flush run and a single fence.
    While tentative records are pending, only further tentative commits
    are legal (an individually-persisted record appended behind a
    checksum gap would be unreachable), and reclamation / reset /
    epoch operations must wait for the seal. *)

val seal_tentative : t -> int
(** Persist the pending group-commit batch: write the true checksum into
    every tentative record (oldest first), flush all their spans plus any
    pending chain pointers in one run, and issue a single fence.  Returns
    the number of records sealed (0 when no batch is pending).  A crash
    inside the seal durably commits a prefix of the batch in append
    order — the valid-prefix scan stops at the first still-poisoned
    checksum — so batched transactions become visible all-or-prefix, never
    out of order. *)

val tentative_records : t -> int
(** Number of tentative (committed-but-unsealed) records pending. *)

val entry_words : t -> int
(** Number of entries in the open record. *)

val append_page_record : t -> timestamp:int -> page_base:Addr.t -> unit
(** Append a standalone, already-committed record embedding the current
    4 KiB image of the page at [page_base] — the hardware bulk-copy
    engine's page adoption (Section 5.1).  May not be called while a
    record is open.  Scanning expands the image into per-word entries.
    Fence-free (persistent on WPQ acceptance). *)

(** {1 Scanning (recovery path, works on any attached or crashed image)} *)

val recover_scan :
  Pmem.t ->
  head_slot:int ->
  block_bytes:int ->
  f:(ts:int -> Addr.t array -> int array -> int -> unit) ->
  int * tail
(** Walk the valid record prefix from the head pointer, oldest first,
    calling [f ~ts addrs vals n] per record: entry [i < n] of the record
    with timestamp [ts] stores [vals.(i)] to [addrs.(i)], in log order.
    The two arrays are the scan's reusable buffer — the next record
    overwrites them and they may hold stale cells past [n] — so they are
    valid only during the call; a caller that keeps a record copies it
    ([Array.sub addrs 0 n]).  Returns the largest timestamp seen (0 if
    none) and the {!tail} where the prefix ends, for {!attach}.  Stops
    at the first checksum mismatch — later records are by construction
    uncommitted — and at the first record whose timestamp does not
    exceed every earlier one (a stale record in a recycled block; see
    the module preamble).  A log that is scanned only to be reattached
    passes an [f] that ignores its records.  The walk allocates only
    the buffer, which grows by doubling to the largest record. *)

(** The volatile cell table: a map from a cell address to two ints, its
    [value] and [ts] (timestamp), with the cells in the order they were
    first bound.  It has two entry points.  {!add} is last-writer-wins:
    reclamation finds its fresh records with it (Section 4.2), and
    switch-out the cells its log covers.  {!bind} is first-write-wins:
    a transaction's write set, the paper's write-set indexing that keeps
    one log entry per datum per transaction (Section 4), binds each cell
    it writes, keeping the undo image of the first write in [value] and
    whatever the backend tracks per cell (its log entry's position) in
    [ts].  Flat: three dense int arrays in first-bind order plus an
    open-addressing probe table, so neither a lookup nor a replacement
    allocates; memory is O(live cells), not O(entries). *)
module Lww : sig
  type t

  val create : unit -> t
  (** An empty table. *)

  val add : t -> Addr.t -> value:int -> ts:int -> unit
  (** Bind [value] at timestamp [ts] to a cell, replacing the existing
      binding iff [ts] is at least as new ([>=]): among entries with
      equal timestamps the last one added wins. *)

  val bind : t -> Addr.t -> value:int -> ts:int -> int
  (** The cell's position.  An absent cell is bound to [value] and [ts]
      first, at position [length t]: a caller that compares the result
      with the length before the call knows whether this is the cell's
      first write.  A present cell keeps its binding. *)

  val length : t -> int
  (** Number of cells bound; their positions are [0 .. length t - 1]. *)

  val pos : t -> Addr.t -> int
  (** The cell's position, or [-1] if it is not bound. *)

  val value : t -> int -> int
  (** The value bound at a position. *)

  val ts : t -> int -> int
  (** The timestamp bound at a position. *)

  val set_ts : t -> int -> int -> unit
  (** [set_ts t p ts] overwrites the timestamp bound at position [p]. *)

  val iter : t -> (Addr.t -> value:int -> ts:int -> unit) -> unit
  (** Every binding, in the order the cells were first bound: a straight
      walk over the dense arrays, no hashing — the commit path. *)

  val iter_newest_first : t -> (Addr.t -> value:int -> ts:int -> unit) -> unit
  (** The reverse order: the order an undo rollback restores cells in. *)

  val clear : t -> unit
  (** Forget every binding in O(bindings), however large the table once
      grew, so a table can serve one transaction after another.  The
      grown arrays are kept for the next transaction, unless their cell
      capacity is at least 64 times the cells bound (counting at least
      64): then they go back to their initial 64-cell size, so one large
      transaction does not leave every later small one probing a table
      sized for it. *)
end

val ts_addr_order :
  n:int -> ts:int array -> addr:int array -> tmp:int array -> int array
(** [ts_addr_order ~n ~ts ~addr ~tmp] is the permutation of [0 .. n-1]
    that orders the cells by ([ts.(i)], [addr.(i)]), ties kept in index
    order: the order {!compact} writes its survivors in.  Stable LSD
    counting passes over the permutation, each key packed above the
    cell's index, first by address and then by timestamp — linear in
    [n], no comparisons — through [tmp] (at least [n + 3] long; its
    content is clobbered), whose room past [n] words holds the digit
    counts: the longer [tmp], the wider the digits and the fewer the
    passes.  Allocates only the returned permutation. *)

val recover_collect :
  Pmem.t -> head_slot:int -> block_bytes:int -> Lww.t * int * int * int * tail
(** Coalescing scan of one log: one walk over its valid record prefix
    (the walk of {!recover_scan}) folds every entry into a fresh table
    with {!Lww.add}, so an entry replaces an existing binding iff its
    timestamp is at least as new.  Returns [(index, max_ts,
    records_scanned, entries_scanned, tail)]: the table, whose cells are
    in the order the log first covers them, and the {!tail} for
    {!attach}.  Memory is O(live cells); switch-out finds its flush set
    with it. *)

val coalesce :
  Pmem.t -> block_bytes:int -> log_bytes:int -> int array ->
  int * tail array * int * int * int
(** [coalesce pm ~block_bytes ~log_bytes head_slots] is the coalescing
    restore (DESIGN.md §6.1) over one or more logs that share a
    timestamp counter: it writes every cell to the value of its newest
    valid entry, each cell once, where {!replay} stores every entry.
    One scan per log (the walk of {!recover_scan}) gathers every valid
    entry, with its record's timestamp, into one flat buffer allocated
    for [log_bytes / 16] entries — pass the bytes of the log zones the
    logs' blocks come from ({!Specpmt_pmalloc.Heap.log_zone_bytes});
    the buffer grows by doubling only if the logs hold more entries.
    One stable radix sort orders the entries by cache line, keeping scan
    order within a line.  Per line, each word keeps its newest entry (a
    timestamp at least as new replaces, so of equal timestamps the later
    entry in scan order wins — the {!Lww.add} rule), the survivors are
    stored in the order their words first appear in the scan, and the
    line is flushed once after its last store; one fence ends the pass.
    The lines are thus written back in ascending order, one drain each.
    Returns [(max_ts, tails, records, entries, cells)]: the largest
    timestamp, each log's {!tail} (same order as [head_slots]), the
    records and entries scanned, and the cells restored.  Memory is
    O(entries) for the length of the call.  Persists nothing else; a
    crash part-way is repaired by recovering again.  Raises
    [Invalid_argument] if an entry's line offset from the lowest
    restored line, its word in the line and its scan index do not fit
    a 62-bit sort key together. *)

val replay :
  ?on_store:(int -> Addr.t -> unit) -> Pmem.t -> block_bytes:int ->
  int array -> int * tail array * int * int * int
(** [replay pm ~block_bytes head_slots] is the paper's recovery over one
    or more logs that share a timestamp counter (Sections 3.1 and
    5.2.2): scan each log's valid prefix (the walk of {!recover_scan}),
    store every entry with the records of all logs in timestamp order —
    stale values are overwritten by fresher ones, O(log) data writes —
    then flush each restored cell once, in the order it was first
    stored, and issue one fence.  A single log is stored as it is
    scanned, its scan order being timestamp order; several logs are
    merged after all scans.  [on_store i a] runs after each store to [a]
    from the log of [head_slots.(i)].  Returns [(max_ts, tails, records,
    entries, cells)]: the largest timestamp, each log's {!tail} (same
    order as [head_slots]), the records and entries replayed, and the
    distinct cells restored.  The differential oracle for
    {!coalesce}. *)

(** {1 Reclamation} *)

type compact_stats = {
  records_scanned : int;
  entries_scanned : int;
  entries_live : int;
  blocks_freed : int;
  blocks_allocated : int;
}

val compact : t -> compact_stats
(** Reclaim stale records: one walk of the log (the walk of
    {!recover_scan}) folds it into a {!Lww} table, then the freshest
    entry of every datum is copied into new blocks, the head pointer is
    switched atomically, and the old blocks are freed.  Each surviving
    entry keeps the timestamp of the record it came from — the compacted
    output is one record per contributing timestamp, in ascending order
    — so replaying this log interleaved with others in global timestamp
    order (Section 5.2.2) remains correct.  Within a record the entries
    are in ascending address order, so the compacted bytes are a
    function of the log's content alone.  Must not be called while a
    record is open. *)

val reset : t -> unit
(** Durably empty the log: persist an end-of-log sentinel at the head
    block's payload, sever its chain pointer, and recycle every other
    block.  After [reset] no scan from the head slot yields any record;
    the arena keeps appending into the (now empty) head block.  Used when
    the log's content has been persisted by other means and must not be
    replayed again (mechanism switch-out, Section 4.3.1).  Must not be
    called while a record is open. *)

(** {1 Epoch support (hardware SpecPMT, Section 5.2)} *)

val current_block : t -> Addr.t
(** The block new appends currently land in. *)

val seal_block : t -> unit
(** Force the next record to start in a fresh block, making the current
    position a block-aligned epoch boundary. *)

val drop_prefix : t -> keep_from:Addr.t -> int
(** Free every block strictly older than [keep_from] (which must be a
    block of the chain), switching the persistent head pointer atomically.
    Returns the number of blocks freed.  Used by epoch-based reclamation:
    start epochs on sealed block boundaries and drop the oldest epoch's
    blocks in the foreground with one pointer persist. *)

(** {1 Introspection} *)

val footprint : t -> int
(** Persistent bytes currently held by the chain. *)

val block_count : t -> int
(** Number of blocks in the chain. *)

val pm : t -> Pmem.t
(** The device the arena lives on. *)
