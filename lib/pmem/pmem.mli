(** Simulated byte-addressable persistent memory with a volatile cache.

    This module is the stand-in for the paper's Intel Optane DC persistent
    memory (Section 2.1).  It models:

    - a persistent {e media image} that survives {!crash};
    - a volatile cache of 64-byte lines in front of it — plain {!store}s
      dirty a cached line and are {b not} persistent until the line is
      flushed ({!clwb} + {!sfence}), written with a non-temporal store
      ({!nt_store_bytes}), or evicted by capacity pressure;
    - an ADR persistence domain: once a flush or non-temporal store is
      accepted by the write-pending queue it is considered persistent (the
      WPQ is inside the persistence domain); [sfence] only contributes the
      drain {e time};
    - a cost model (see {!Config}) that accumulates simulated nanoseconds
      and traffic counters into {!Stats};
    - crash injection: a {e fuse} aborts execution after a chosen number of
      memory events, and {!crash} then drops the volatile cache, writing
      each dirty 8-byte word back with a coin flip to model in-flight
      stores and spontaneous evictions.

    All operations are deterministic given the creation seed. *)

type t

exception Crash
(** Raised by any memory operation when the installed crash fuse burns out.
    The caller should unwind to the harness, which calls {!crash}. *)

val create : ?seed:int -> Config.t -> t
(** Fresh device, media zero-filled. *)

val config : t -> Config.t

val stats : t -> Stats.t
(** The device's counters.  The event counts stay live, but the clocks
    ([ns], [bg_ns]) are kept outside the record and copied into it by
    this call: read them from a fresh [stats] after further device
    operations. *)

(** {1 Per-domain views}

    A view models one core's cache hierarchy over the shared media: it
    shares the media image with its parent but owns a private cache,
    write-pending queue, simulated clock and fuse.  Views are {b not}
    coherent — dirty lines write back whole, so the image must be
    partitioned by cache line: a line written through one view must not
    be touched through any other until the owner has been
    {!detach_cache}d.  The shard-per-domain data plane gives each worker
    domain one view and line-disjoint log/key regions. *)

val fork_view : ?seed:int -> t -> t
(** New view over the same media.  Fresh stats/clock (per-domain time),
    fresh empty cache.  Fork only when the parent's cache holds nothing
    the view will touch ({!detach_cache} the parent first). *)

val detach_cache : t -> unit
(** Write every dirty cached line back to media and empty the cache —
    the ownership-handoff fence between views (worker join, or parent
    handing formatted lines to freshly forked views).  A
    simulation-boundary operation: unmetered, no fuse events. *)

val discard_cache : t -> unit
(** Drop the cache without write-back: the crash counterpart of
    {!detach_cache}.  Unpersisted stores in this view are lost, as a
    power failure would lose one core's caches. *)

(** {1 Data access}

    Every access and persistence call below is one fuse event ({!events};
    the byte-string calls only with a non-empty buffer).  An address
    outside the image raises [Invalid_argument] before that event, so a
    rejected call has no effect at all; so does a word access
    ({!load_int}, {!store_int}) at an address that is not 8-byte
    aligned. *)

val load_int : t -> Addr.t -> int
(** 8-byte load of a 63-bit OCaml [int] at an 8-byte-aligned address. *)

val store_int : t -> Addr.t -> int -> unit
(** 8-byte store; volatile until flushed or evicted. *)

val load_bytes : t -> Addr.t -> int -> bytes
val store_bytes : t -> Addr.t -> bytes -> unit

(** {1 Persistence operations} *)

val clwb : t -> Addr.t -> unit
(** Flush the cache line containing the address.  Once accepted by the
    write-pending queue the line content is persistent; the time cost of
    draining is paid by the next {!sfence}.  Flushing a clean or uncached
    line costs only the issue overhead. *)

val clflushopt : t -> Addr.t -> unit
(** Like {!clwb} but also invalidates the cached copy (the pre-Skylake
    flavour); the next access to the line misses. *)

val sfence : t -> unit
(** Persist barrier: waits until every accepted flush has drained. *)

val nt_store_bytes : t -> Addr.t -> bytes -> unit
(** Non-temporal store: bypasses the cache, writing directly through the
    write-pending queue (persistent on acceptance, drain paid at the next
    fence).  Invalidates any cached copy of the touched lines. *)

val flush_range : t -> Addr.t -> int -> unit
(** [clwb] every line of the byte range. *)

val charge_ns : t -> float -> unit
(** Add foreground simulated time (used by higher layers to model
    non-memory costs, e.g. hardware structures). *)

val charge_bg_ns : t -> float -> unit
(** Add background-core simulated time (reclamation, replay threads). *)

(** {1 Crash injection and recovery} *)

val set_fuse : t -> int option -> unit
(** [set_fuse t (Some n)] makes the [n]-th subsequent memory event raise
    {!Crash}.  [None] disarms. *)

val events : t -> int
(** Monotonic count of fuse-visible memory events since creation — the
    index space {!set_fuse} counts in.  Lets a crash-exploration driver
    measure a workload once and then target any event as a crash point. *)

val crash : t -> unit
(** Take the crash: {!crash_with} a seeded coin flip, so every dirty cached
    word independently reaches the media with probability
    [crash_word_persist_prob]; then the cache, queue and fuse are cleared.
    Subsequent loads observe only the media. *)

val crash_with : t -> persist:(Addr.t -> bool) -> unit
(** Oracle-driven crash: like {!crash}, but the persistence of each dirty
    8-byte word is decided by [persist] instead of a coin flip.  The
    oracle is consulted once per dirty word, in ascending address order —
    deterministic by construction, which is what makes crash states
    enumerable and replayable (see [Specpmt_crashmc]).  Under eADR every
    dirty word drains regardless of the oracle. *)

val dirty_lines : t -> int list
(** Indices of the cache lines holding unpersisted stores, ascending.
    The [k]-th element is what a [line:k] crash choice refers to. *)

val dirty_words : t -> Addr.t list
(** Word addresses covered by the dirty lines, ascending — the decision
    domain of {!crash_with}. *)

(** {1 Metering control} *)

val with_unmetered : t -> (unit -> 'a) -> 'a
(** Run a setup phase without accumulating time or counters (state changes
    still happen, and the crash fuse is still honoured). *)

(** {1 Debug/verification access (no cost, no metering)} *)

val peek_media_int : t -> Addr.t -> int
(** Read the media image directly — what a post-crash observer sees. *)

val peek_volatile_int : t -> Addr.t -> int
(** Read through the cache as {!load_int} would, without metering. *)

val mem_size : t -> int
