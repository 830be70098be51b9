(** Persistent-heap allocator over a {!Specpmt_pmem.Pmem.t} device.

    This is the stand-in for the paper's use of libvmmalloc: dynamic memory
    allocation redirected to persistent memory (Section 7.1.1).  Blocks
    carry a persistent 8-byte header (size and allocation bit) immediately
    before the returned address; free lists are volatile and are rebuilt by
    {!recover} with a heap walk, mirroring how a PM allocator would
    reconstruct its runtime state after a crash.

    Like libvmmalloc, the allocator itself is not failure-atomic; the
    transaction backends above it are responsible for the crash consistency
    of application data. *)

open Specpmt_pmem

type t

val create : Pmem.t -> t
(** Format the pool: writes the magic and an empty heap.  Fails if the pool
    already carries a valid magic (use {!open_existing}). *)

val open_existing : Pmem.t -> t
(** Attach to a formatted pool (e.g. after a crash) and rebuild the
    volatile free lists from the persistent headers. *)

val pmem : t -> Pmem.t

val alloc : t -> int -> Addr.t
(** [alloc t n] returns an 8-byte-aligned address of [n] usable bytes
    (rounded up to a size class).  Raises [Out_of_memory] when the pool is
    exhausted. *)

val alloc_log : t -> int -> Addr.t
(** Like {!alloc}, but from a dedicated log zone growing downward from the
    pool end — transaction runtimes place their log blocks here so that
    log growth never interleaves with application data pages (the paper's
    dedicated per-thread log areas). *)

val free : t -> Addr.t -> unit
(** Return a block to its size-class free list.  Double frees are
    detected and raise [Invalid_argument]. *)

val register_free : t -> Addr.t -> unit
(** Put a block on the free list {e without} touching its header — for
    transaction runtimes that clear the allocation bit through their own
    logged stores and may only release the block once the transaction is
    durably committed. *)

val usable_size : t -> Addr.t -> int
(** The size-class capacity of an allocated block. *)

val log_zone_bytes : t -> int
(** Bytes of the log zone: every block {!alloc_log} has handed out,
    live or free, with its header.  No log block lies outside it, so the
    logs of this heap hold at most [log_zone_bytes / 16] entries of 16
    bytes.  After {!recover} it is read from the zone's persistent bump
    cell. *)

val root_slot : t -> int -> Addr.t
(** Address of persistent root-pointer slot [i] (see
    {!Specpmt_pmalloc.Layout.root_slot_count}). *)

val used_bytes : t -> int
(** Bytes between the heap base and the bump pointer (high-water mark). *)

val live_bytes : t -> int
(** [used_bytes] minus the bytes sitting on free lists. *)

val recover : t -> unit
(** Rebuild volatile allocator state by walking the persistent headers.
    Blocks whose header was lost in the crash (never drained to the media)
    are treated as free space beyond the last recoverable header. *)

(** {1 Carved sub-heap regions}

    A region is a line-aligned byte range carved out of a parent heap
    and run as an independent allocator: its bump cells live in the
    region's first cache line, its data zone bumps up from the second
    line, and its log zone bumps down from the region end.  Because the
    bounds are line-aligned, a sub-heap and its parent (or two
    sub-heaps) never share a cache line — per-shard sub-heaps can
    therefore allocate through incoherent per-domain
    {!Specpmt_pmem.Pmem.fork_view}s of the same media. *)

type region = { r_lo : Addr.t; r_hi : Addr.t }

val carve_region : t -> bytes:int -> region
(** Allocate a line-aligned region with at least [bytes] usable bytes
    (after the cells line) from the parent's data zone.  The region is
    raw until formatted with {!of_region}. *)

val of_region : Pmem.t -> region -> t
(** Format a carved region as a fresh sub-heap and attach it through
    [pm] — typically a per-domain view of the parent's media.  No magic
    is written; regions are reached through their parent's structures. *)

