(** DRAM shadow mirror for the {!Pbtree} hot path.

    A volatile copy of a tree's node contents — meta, high key, right
    link and the key/payload arrays — keyed by node address, plus the
    header's root and count.  Descents and read-only operations are
    served from this mirror with binary search inside nodes, never
    touching the device model; only the persistence events a mutation
    actually needs (leaf-level logged writes, the commit fence) remain
    on the metered path.  That split is exactly the speculative-logging
    cost model: volatile state is free, persistence events cost.

    {b Coherence protocol.}  The mirror holds two layers: [base], the
    committed image, and [stage], a copy-on-write overlay populated by
    the open transaction ({!stage} clones a node on first touch;
    {!stage_free} writes a tombstone).  Reads go overlay-first, so a
    transaction observes its own structural updates.  The first staging
    call of a transaction arms a {!Specpmt_txn.Ctx.ctx.on_end} hook:
    on commit the overlay is folded into [base]; on abort {e or on a
    crash escaping the transaction} it is dropped wholesale — [base]
    never sees uncommitted state.

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
  mutable meta : int;  (** [nkeys*2 + is_leaf], [-1] marks a staged tombstone *)
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

val order : t -> int

val root : t -> int
(** Root node address, staged view (a transaction that grew or shrank
    the root sees its own update). *)

val count : t -> int
(** Entry count, staged view. *)

val node : t -> Addr.t -> node
(** Staged view of a node: the open transaction's overlay wins, a
    staged tombstone hides the base node.  Raises [Not_found] when the
    mirror does not cover the address — callers fall back to metered
    ctx reads and count a {!miss}. *)

val mem : t -> Addr.t -> bool

val load : t -> Addr.t -> node
(** Install a zeroed node in the committed image and return it for the
    rebuild pass to fill.  Only attach/rebuild may call this. *)

val stage : t -> Ctx.ctx -> Addr.t -> node
(** Copy-on-write handle for a mutation: returns the staged clone of
    the node (created from [base], or zeroed for a fresh allocation)
    and arms the transaction's outcome hook.  The caller updates the
    returned fields {e mirroring each transactional write it issues}. *)

val stage_free : t -> Ctx.ctx -> Addr.t -> unit
(** Stage removal of a node (transactional [free]); applied on commit,
    dropped on abort. *)

val stage_root : t -> Ctx.ctx -> int -> unit
(** Stage a root change (root growth/collapse). *)

val stage_count : t -> Ctx.ctx -> int -> unit
(** Stage a count change. *)

val size : t -> int
(** Nodes in the committed image. *)

val stage_size : t -> int
(** Staged entries of the open transaction (0 between transactions). *)

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
