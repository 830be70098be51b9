(** Persistent B-link tree (ordered int-keyed map with range scans).

    A B+-style tree — all entries live in the leaves, internal nodes
    hold separator bounds — with the B-link additions: every node
    carries an inclusive {e high key} (the upper bound of its subtree,
    [max_int] on the rightmost spine) and a right-sibling link, so an
    ordered walk can proceed from any node by following links and range
    scans never re-descend.  Balancing is preemptive: inserts split any
    full node on the way down (so a split never propagates back up) and
    removals borrow from or merge with a sibling before descending into
    a minimal node (so an underflow never propagates either); the root
    grows by gaining a single-entry parent and shrinks by handing its
    slot to a lone child.

    Every node read and write goes through a {!Specpmt_txn.Ctx.ctx}:
    nodes are allocated with [ctx.alloc], freed with [ctx.free] and
    updated with transactional stores, so the crash atomicity of a
    multi-node structural update (split, merge, sibling relink) comes
    entirely from the enclosing transaction's logging scheme — no
    tree-specific recovery code exists.  Callers must therefore run
    every mutation inside a transaction; reads may use any ctx,
    including {!Specpmt_txn.Ctx.raw_ctx} or
    {!Specpmt_txn.Ctx.peek_ctx} for audits.

    Keys must satisfy [min_int < key < max_int]: both extremes are
    reserved as the tree's -inf/+inf sentinels.

    {b Shadow mirror.}  {!attach_shadow} equips a handle with a DRAM
    {!Shadow} mirror of the whole tree: every node, and the header, as
    an image of its cells by word offset.  From then on descents, reads
    and range walks are served from volatile memory (binary search
    inside nodes), and every cell write goes to the media, then to the
    mirror in place, under an undo log that the transaction's outcome
    hook empties on commit and replays on abort; only the transactional
    writes a mutation actually needs remain on the metered path.  With
    no mirror attached every operation reads through the ctx in exactly
    the pre-mirror sequence. *)

open Specpmt_pmem
open Specpmt_txn

type t
(** Volatile handle: the persistent header address plus the cached
    order and the per-handle {!stats} counters.  Cheap to rebuild with
    {!of_header} after a crash or in another domain. *)

type stats = {
  mutable leaf_splits : int;
  mutable internal_splits : int;
  mutable merges : int;
  mutable borrows : int;
  mutable root_grows : int;
  mutable root_shrinks : int;
}
(** Volatile per-handle counters of structural events since the handle
    was built — the crash-exploration driver uses them to prove its
    workload actually exercised every rebalancing path. *)

val create : ?order:int -> Ctx.ctx -> unit -> t
(** Allocate the header and an empty root leaf inside the current
    transaction.  [order] (default 8) is the maximum entries per node,
    persisted in the header; it must be at least 4.  Raises
    [Invalid_argument] on a smaller order. *)

val of_header : Ctx.ctx -> Addr.t -> t
(** Rebuild a handle from a persisted header address (root-slot
    rediscovery after a crash, or a second handle in another domain).
    Reads the order from the header; raises [Invalid_argument] when the
    cell does not hold a plausible order (wrong address). *)

val header : t -> Addr.t
(** The persistent header address — what a root slot or directory must
    store for {!of_header} to find the tree again. *)

val order : t -> int
val stats : t -> stats

val attach_shadow : Ctx.ctx -> t -> unit
(** Build (or rebuild) this handle's DRAM mirror with one pass over the
    tree through [ctx] — callers pass {!Specpmt_txn.Ctx.peek_ctx} on
    the device view the handle's transactions run against, so the pass
    is unmetered and observes that view's cached lines.  Any previous
    mirror is discarded: after a crash the mirror must never be
    trusted, recovery paths re-attach from media.  The handle is
    domain-local once mirrored — do not share it across domains. *)

val detach_shadow : t -> unit
(** Drop the mirror; the handle reverts to metered ctx reads. *)

val shadow : t -> Shadow.t option
(** The attached mirror, for metrics ({!Shadow.totals},
    {!Shadow.publish}) and audits. *)

val verify_shadow : Ctx.ctx -> t -> unit
(** Audit the mirror against the media image read through [ctx]
    (normally a peek ctx): the header's root and count cells, the
    reachable node set, and every node's live cells (meta, high, right
    and its live key/payload prefix) must match exactly.  Raises
    [Failure] with a description on the first divergence,
    [Invalid_argument] if no mirror is attached or a transaction is in
    flight.  The qcheck differential suite and the
    crash explorer's recovery audit run this after every recover. *)

val insert : Ctx.ctx -> t -> int -> int -> unit
(** Insert or overwrite.  Raises [Invalid_argument] when the key is
    [min_int] or [max_int] (reserved sentinels). *)

val remove : Ctx.ctx -> t -> int -> bool
(** Remove a key; [false] if absent.  Rebalancing on the descent may
    restructure the tree even for an absent key. *)

val find : Ctx.ctx -> t -> int -> int option

val length : Ctx.ctx -> t -> int
(** Number of entries (persisted in the header, O(1)). *)

val iter_from : Ctx.ctx -> t -> lo:int -> (int -> int -> bool) -> unit
(** [iter_from ctx t ~lo f] visits entries with key [>= lo] in
    ascending order, leaf-walking through the right-sibling links; [f]
    returns whether to continue after the entry it was given — the
    early-stop primitive count-limited scans are built on. *)

val range : Ctx.ctx -> t -> lo:int -> hi:int -> (int * int) list
(** All entries with [lo <= key <= hi], ascending. *)

val iter : Ctx.ctx -> t -> (int -> int -> unit) -> unit
(** Every entry, ascending. *)

val fold : Ctx.ctx -> t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** Every entry, ascending. *)

val height : Ctx.ctx -> t -> int
(** Levels from root to leaf inclusive; an empty tree has height 1. *)

val node_count : Ctx.ctx -> t -> int * int
(** [(internal, leaf)] node totals — bench reporting. *)

val check : Ctx.ctx -> t -> unit
(** Structural audit; raises [Failure] with a description on any
    violation.  Verifies per-node key order and occupancy bounds (root
    exceptions included: a root leaf may be empty, an internal root
    never keeps a single child between transactions), that every
    node's high key equals its separator in the parent, that internal
    separators bound their subtrees, uniform leaf depth, that the
    right-sibling links at {e every} level chain the level's nodes in
    tree order and terminate, and that the persisted length matches
    the leaf entry total. *)
