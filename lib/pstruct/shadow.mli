(** DRAM shadow mirror for the {!Pbtree} hot path.

    A volatile copy of a tree's node contents — meta, high key, right
    link and the key/payload arrays — keyed by node address, plus the
    header's root and count.  Descents and read-only operations are
    served from this mirror with binary search inside nodes, never
    touching the device model; only the persistence events a mutation
    actually needs (leaf-level logged writes, the commit fence) remain
    on the metered path.  That split is exactly the speculative-logging
    cost model: volatile state is free, persistence events cost.

    {b Coherence protocol.}  The mirror holds one node table, updated
    in place: a transaction reads its own structural updates because
    they are already there.  Every mutation first pushes (node, field,
    old value) onto a flat undo log, reused across transactions, and the
    first mutation of a transaction arms a
    {!Specpmt_txn.Ctx.ctx.on_end} hook.  On commit the hook empties the
    log; on abort {e or on a crash escaping the transaction} it replays
    the log newest first — restoring fields, root and count, putting
    freed nodes back and removing fresh ones — so the table returns to
    the committed image.  This is the paper's undo trade moved to DRAM,
    where it costs no ordering: the mirror is volatile.

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

type node = {
  mutable meta : int;  (** [nkeys*2 + is_leaf] *)
  mutable high : int;  (** inclusive upper bound of the subtree *)
  mutable right : int;  (** right-sibling link, [0] at the spine end *)
  keys : int array;  (** slots [0..nkeys); the rest is dead *)
  pays : int array;  (** child pointers (internal) or payloads (leaf) *)
}
(** Mirrored node contents.  Array slots beyond the current key count
    are dead: they are neither read nor compared, and may disagree with
    whatever junk the media holds there. *)

type t
(** One tree's mirror.  Domain-local, like the handle that owns it:
    never share across domains. *)

val create : order:int -> root:int -> count:int -> t
(** Empty mirror for a tree of the given order; {!load} fills it. *)

val root : t -> int
(** Root node address, including the open transaction's update. *)

val count : t -> int
(** Entry count, including the open transaction's update. *)

val node : t -> Addr.t -> node
(** The node at an address, with the open transaction's updates; a node
    the transaction freed is gone.  Raises [Not_found] when the mirror
    does not cover the address — callers fall back to metered ctx reads
    and count a {!miss}.  The last node found is memoised, so the
    fields of one node read in a row cost one table probe.  The record
    returned is the mirror's own: mutate it only through the setters
    below. *)

val load : t -> Addr.t -> node
(** Install a zeroed node and return it for the rebuild pass to fill,
    outside any transaction (nothing is logged).  Only attach/rebuild
    may call this. *)

(** {1 Transactional updates}

    Each mirrors one transactional write the caller has just issued to
    the media: it updates the node in place, logs the old value, and
    arms the transaction's outcome hook.  A node setter on an address
    the mirror does not hold installs a zeroed node first (a fresh
    allocation), which an abort removes again. *)

val set_meta : t -> Ctx.ctx -> Addr.t -> int -> unit
val set_high : t -> Ctx.ctx -> Addr.t -> int -> unit
val set_right : t -> Ctx.ctx -> Addr.t -> int -> unit

val set_key : t -> Ctx.ctx -> Addr.t -> int -> int -> unit
(** [set_key t ctx a i v] sets key slot [i] of the node at [a]. *)

val set_pay : t -> Ctx.ctx -> Addr.t -> int -> int -> unit
(** [set_pay t ctx a i v] sets payload slot [i] of the node at [a]. *)

val free : t -> Ctx.ctx -> Addr.t -> unit
(** Remove a node (transactional [free]); an abort puts it back. *)

val set_root : t -> Ctx.ctx -> int -> unit
(** A root change (root growth/collapse). *)

val set_count : t -> Ctx.ctx -> int -> unit

val size : t -> int
(** Nodes in the mirror. *)

val pending : t -> int
(** Undo-log entries of the open transaction (0 between transactions). *)

val hit : t -> unit
(** Count a mirror-served node fetch. *)

val miss : t -> unit
(** Count a fetch the mirror could not serve (fell back to ctx reads). *)

val add_rebuild_ns : t -> int -> unit
(** Account host wall time spent rebuilding the mirror. *)

val totals : t -> int * int * int
(** [(hits, misses, rebuild_ns)] since creation. *)

val publish : t -> unit
(** Push the counter deltas since the last publish into the calling
    domain's metrics registry as [shadow.hits], [shadow.misses] and
    [shadow.rebuild_ns].  Call from the domain that owns the mirror. *)

val lower_bound : int array -> int -> int -> int
(** [lower_bound keys n key] is the smallest [i < n] with
    [keys.(i) >= key], or [n] — the in-node binary search replacing the
    linear slot scans. *)
