(** Software SpecPMT — the paper's software-only speculative-logging
    transaction runtime (Sections 3 and 4).

    Inside a transaction every durable store is applied in place and
    speculatively logged ([splog]) with plain stores into the per-thread
    chained log ({!Specpmt_txn.Log_arena}); repeated stores to a cell
    freshen its single log entry in place (write-set indexing).  Commit
    persists the whole record with one flush run and a {e single} fence —
    no fence per update, and (unless [data_persist] is set) {e no data
    flushes at all}: after commit the record doubles as a redo log, so
    in-place data may drain to the media lazily.

    Recovery (Section 3.1) discards the torn record of an interrupted
    transaction via the checksum commit marker and restores the committed
    image.  The default {!Coalesce} mode gathers one scan of the log into
    a flat buffer, sorts it by cache line, and writes each live cell
    exactly once, from its newest entry, in ascending line order with
    one flush per line — O(live set) data writes; the paper's
    oldest-first replay loop ({!Specpmt_txn.Log_arena.replay}) remains
    available as {!Replay}, the differential-testing oracle.  Either way
    that scan is the log's only walk: the arena reattaches at the tail
    it found.  One sequence, {!recover_threads}, recovers a standalone
    runtime and every multi-threaded pool.

    Background reclamation (Section 4.2) compacts the log off the
    critical path ({!Specpmt_txn.Log_arena.compact}: one scan, copy the
    freshest entry per datum, two-fence splice) once its footprint
    outgrows [reclaim_bytes]; its cost is charged to the background
    ledger (see DESIGN.md, "Recovery & reclamation performance
    model"). *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type recovery_mode =
  | Coalesce
      (** one scan per log gathers every entry, a sort by line finds
          each cell's newest, and each live cell is written exactly once
          — O(live set) data writes *)
  | Replay
      (** the paper's replay-every-record loop, oldest first — O(log)
          data writes; kept as the differential-testing oracle *)

type params = {
  data_persist : bool;
      (** force data flushes + a second fence at commit — the paper's
          suboptimal SpecSPMT-DP used to isolate the gain of removing data
          persistence *)
  block_bytes : int;  (** log-block size (default 4096) *)
  reclaim_bytes : int;
      (** reclamation trigger: compact the log once its footprint exceeds
          this many bytes and at least doubles its last compacted size
          (default [1 lsl 20]) *)
  recovery : recovery_mode;
      (** how {!recover_threads} restores data (default {!Coalesce}) *)
}

val default_params : params
(** [{ data_persist = false; block_bytes = 4096;
       reclaim_bytes = 1 lsl 20; recovery = Coalesce }] *)

val dp_params : params
(** {!default_params} with [data_persist = true] — the SpecSPMT-DP
    configuration. *)

type t
(** A per-thread runtime instance: its log arena, write set and
    reclamation state.  Obtained from {!create} alongside the generic
    backend record. *)

val params : t -> params
(** The parameters this runtime was created with. *)

val pmem : t -> Pmem.t
(** The device view this runtime's transactions read and write through.
    In the data plane every shard's runtime holds its worker domain's
    incoherent view — volatile rebuilds that must observe the shard's
    own (possibly cached, not yet written back) tree cells peek through
    this view, not through the parent. *)

val create :
  ?head_slot:int -> ?tsc:Specpmt_txn.Tsc.t -> Heap.t -> params -> Ctx.backend * t
(** Fresh runtime on a formatted pool.  [head_slot] selects the root slot
    of this thread's log head; [tsc] shares a timestamp counter between
    the per-thread runtimes of a multi-threaded pool (the stand-in for
    rdtscp, Section 4.1). *)

(** {1 Group commit}

    Batching K transactions' records under one flush run + fence
    amortizes the single ordering point a SpecPMT commit has left: the
    per-transaction fence cost tends to 1/K.  Between {!batch_begin} and
    {!batch_end} every commit appends a {e tentative} record — checksum
    deliberately poisoned, nothing flushed or fenced — so a crash before
    the seal leaves the whole batch invisible to recovery no matter what
    the cache evicted.  {!batch_end} patches the true checksums and
    persists the batch with one flush run and a single fence; a crash
    inside the seal durably commits a prefix of the batch in order (the
    valid-prefix scan stops at the first still-poisoned checksum). *)

val batch_begin : t -> unit
(** Open a group-commit batch.  Must be called between transactions; at
    most one batch may be open; rejected in [data_persist] mode, which
    by definition fences each transaction's data individually. *)

val batch_end : t -> int
(** Seal the open batch (see above); returns the number of records made
    durable (read-only transactions contribute none).  Must be called
    between transactions.  Reclamation deferred during the batch may run
    here. *)

val in_batch : t -> bool
(** Whether a group-commit batch is open. *)

val snapshot_region : t -> Addr.t -> int -> unit
(** Crash-consistent adoption of external data (Section 4.3.2): one
    committed transaction that logs the current value of every 8-byte cell
    of the range, without modifying it.  Until a datum has been logged at
    least once, speculative logging cannot revoke an uncommitted update to
    it. *)

val switch_out : t -> int
(** Leave speculative logging (Section 4.3.1): selectively flush every
    cell the live log covers, fence once, and durably invalidate the log
    ({!Specpmt_txn.Log_arena.reset}) — after this another
    crash-consistency mechanism (e.g. the PMDK backend) can run on the
    same pool, and no later replay of the speculative log can clobber
    that mechanism's committed data with the stale speculative values.
    The flush set is found with one scan of the log.  Returns the number
    of cells persisted.  Must be called between transactions. *)

val reclaim_now : t -> Log_arena.compact_stats
(** Explicit reclamation trigger (the paper's API-triggered mode). *)

val reclaim_count : t -> int
(** Number of reclamation cycles run so far. *)

val reattach : t -> tail:Log_arena.tail -> unit
(** Reattach the runtime to its log at the [tail] its recovery scan
    found ({!Specpmt_txn.Log_arena.attach}) and drop the state of any
    transaction or batch the crash interrupted.  {!recover_threads}
    calls it per runtime after restoring all their logs merged by
    timestamp. *)

val recover_threads : Pmem.t -> heaps:Heap.t list -> t array -> unit
(** Post-crash recovery of runtimes that share one timestamp counter
    (non-empty; the recovery mode is the first runtime's): rebuild
    [heaps], restore the committed image from every runtime's log
    merged by timestamp (Section 5.2.2) through the device view [pm] —
    the gather buffer of {!Coalesce} is sized once from [heaps]' log
    zones, where every runtime's log blocks come from —
    restart the counter above the largest timestamp found, and
    {!reattach} each runtime at its log's tail.  A standalone runtime's
    recovery is this sequence over itself; {!Spec_mt} runs it over the
    pool's parent view, the pool heap and any per-thread sub-heaps. *)
