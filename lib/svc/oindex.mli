(** Per-shard ordered index over the service key table.

    One {!Specpmt_pstruct.Pbtree} per shard, allocated from the shard's
    own runtime heap through its transactional backend — in the data
    plane that heap is the shard's carved sub-heap accessed through its
    worker's view, so every tree node lives on lines only that worker
    ever touches and the plane's line-disjointness invariant survives
    (see DESIGN.md §14).

    The index maps each {e populated} key (a key some client write has
    touched) to its cell address.  Adoption writes do not populate;
    {!ensure} inserts a key on its first client write, inside the same
    transaction as the cell write, so the index entry and the cell are
    atomic under speculative logging.  A volatile per-key bitmap makes
    the populated check O(1) on the write hot path; recovery rebuilds
    it by walking the trees.

    Rediscovery: creation persists a directory block
    [[shards; keys; order; header_0; ...]] in the parent heap and
    points root slot {!Specpmt_backends.Slots.svc_index} at it (raw
    stores + flush + fence), so {!recover} can rebuild every handle
    from the media image alone. *)

open Specpmt_pmalloc
open Specpmt_backends
open Specpmt_txn

type t

val create :
  ?shadow:bool -> Heap.t -> pool:Spec_mt.t -> shards:int -> keys:int -> t
(** Create one empty order-8 tree per shard (each inside one committed
    transaction on that shard's backend, so node cells are logged
    before any later structural update can tear them), then persist the
    directory and root slot through the parent heap's view.  [shadow]
    (default [true]) equips every tree with a DRAM mirror
    ({!Specpmt_pstruct.Pbtree.attach_shadow}), built with one unmetered
    peek through the shard's {e own} runtime view — the only view
    guaranteed to observe tree lines still dirty in a worker cache.
    Data-plane callers must detach the parent cache afterwards, before
    workers fork. *)

val recover : ?shadow:bool -> pool:Spec_mt.t -> Heap.t -> shards:int -> keys:int -> t
(** Rebuild from the root slot after {!Specpmt_backends.Spec_mt.recover}
    has replayed the logs: re-read the directory, re-handle every tree
    ({!Specpmt_pstruct.Pbtree.of_header}) and rebuild the populated
    bitmap by walking them.  All reads are unmetered peeks.  [shadow]
    (default [true]) rebuilds each tree's mirror from the replayed
    image — a pre-crash mirror is never reused, because a crash inside
    the commit protocol fires no outcome hook yet can leave the
    transaction durable.  Mirrors are built
    through each shard's runtime view of [pool].  Raises
    [Invalid_argument] when the directory disagrees with the expected
    geometry (wrong pool). *)

val ensure : Ctx.ctx -> t -> shard:int -> key:int -> addr:Specpmt_pmem.Addr.t -> unit
(** Index [key -> addr] in [shard]'s tree if this is the key's first
    client write; O(1) when already populated.  Must run inside the
    same transaction as the cell write it accompanies. *)

val scan : Ctx.ctx -> t -> shard:int -> anchor:int -> len:int -> int
(** Ordered scan: walk up to [len] populated keys of [shard]'s tree
    starting at the smallest populated key [>= anchor], reading each
    cell through [ctx], and return the order-sensitive checksum
    [acc = (acc*31 + key + value) land max_int] (0 when the window is
    empty).  Shard-local by construction, so cell ownership and the
    data plane's line-disjointness hold. *)

val is_populated : t -> int -> bool
val populated_count : t -> int

val tree : t -> int -> Specpmt_pstruct.Pbtree.t
(** Shard [i]'s tree handle (test/audit use). *)

val publish_shadow : t -> shard:int -> unit
(** Push [shard]'s mirror counter deltas ([shadow.hits] /
    [shadow.misses] / [shadow.rebuild_ns]) into the calling domain's
    metrics registry; no-op without a mirror.  Must run on the domain
    that owns the shard — data-plane workers call it before a clean
    stop, so the deltas ride the normal export/absorb merge. *)
