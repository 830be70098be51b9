(** DRAM cell mirror for the {!Pbtree} hot path.

    A volatile image of a tree's nodes, keyed by node address: each
    mirrored node is one [int array] whose cell [i] holds the word at
    byte offset [8 * i] of the node, in media order.  The mirror knows
    nothing of what the cells mean — the tree reads and writes them by
    offset, and mirrors its header as one more node.  Descents and
    read-only operations are served from this mirror with binary search
    inside nodes, never touching the device model; only the persistence
    events a mutation actually needs (leaf-level logged writes, the
    commit fence) remain on the metered path.  That split is exactly the
    speculative-logging cost model: volatile state is free, persistence
    events cost.

    {b Coherence protocol.}  The mirror holds one node table, updated
    in place: a transaction reads its own structural updates because
    they are already there.  Every mutation first pushes (address, word
    offset, old value) onto a flat undo log, reused across transactions,
    and the first mutation of a transaction arms a
    {!Specpmt_txn.Ctx.ctx.on_end} hook.  On commit the hook empties the
    log; on abort {e or on a crash escaping the transaction} it replays
    the log newest first — restoring cells, putting freed nodes back and
    removing fresh ones — so the table returns to the committed image.
    This is the paper's undo trade moved to DRAM, where it costs no
    ordering: the mirror is volatile.

    {b Crash story.}  A crash inside the commit protocol can leave the
    transaction durable on media while the hook reported failure (the
    hook fires only after the backend's commit returns), so after any
    crash the mirror must be rebuilt from media — attach paths do a
    fresh unmetered rebuild and recovery never trusts a pre-crash
    mirror.  The mirror is pure DRAM: it writes nothing to the device,
    so it cannot perturb recovery, the line-disjointness invariant, or
    any crash-consistency guarantee of the underlying scheme. *)

open Specpmt_pmem
open Specpmt_txn

type t
(** One tree's mirror.  Domain-local, like the handle that owns it:
    never share across domains. *)

val create : cells:int -> t
(** Empty mirror whose nodes are [cells] words long; {!load} fills it. *)

val node : t -> Addr.t -> int array
(** The image of the node at an address, with the open transaction's
    updates; a node the transaction freed is gone.  Raises [Not_found]
    when the mirror does not cover the address — callers fall back to
    metered ctx reads and count a {!miss}.  The last node found is
    memoised, so the cells of one node read in a row cost one table
    probe.  Cells past a node's live prefix are dead: they are neither
    read nor compared, and may disagree with whatever junk the media
    holds there.  The array is the mirror's own: mutate it only through
    {!set}. *)

val load : t -> Addr.t -> int array
(** Install a zeroed node and return its image for the rebuild pass to
    fill, outside any transaction (nothing is logged).  Only
    attach/rebuild may call this. *)

val set : t -> Ctx.ctx -> Addr.t -> int -> int -> unit
(** [set t ctx a off v] mirrors one transactional write the caller has
    just issued to the media: cell [off] of the node at [a] becomes [v],
    the old value is logged, and the transaction's outcome hook is
    armed.  On an address the mirror does not hold it installs a zeroed
    node first (a fresh allocation), which an abort removes again. *)

val free : t -> Ctx.ctx -> Addr.t -> unit
(** Remove a node (transactional [free]); an abort puts it back. *)

val size : t -> int
(** Nodes in the mirror. *)

val pending : t -> int
(** Undo-log entries of the open transaction (0 between transactions). *)

val hit : t -> unit
(** Count a mirror-served read. *)

val miss : t -> unit
(** Count a read the mirror could not serve (fell back to ctx reads). *)

val add_rebuild_ns : t -> int -> unit
(** Account host wall time spent rebuilding the mirror. *)

val totals : t -> int * int * int
(** [(hits, misses, rebuild_ns)] since creation. *)

val publish : t -> unit
(** Push the counter deltas since the last publish into the calling
    domain's metrics registry as [shadow.hits], [shadow.misses] and
    [shadow.rebuild_ns].  Call from the domain that owns the mirror. *)
