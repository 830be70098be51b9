(** Multi-threaded software SpecPMT (paper Section 4.1, multi-threaded
    case).

    Each simulated thread owns a private chained log ("each thread manages
    its own log without consulting with other threads") and a per-thread
    {!Specpmt_backends.Spec_soft} runtime; they share the pool and a
    logical timestamp counter — the stand-in for [rdtscp].  Recovery scans
    {e every} thread's log and merges the records by global timestamp,
    exactly as Section 5.2.2 prescribes: it is
    {!Spec_soft.recover_threads} over all the pool's runtimes, the
    standalone runtime's own recovery sequence.  In {!Spec_soft.Replay}
    mode {!Specpmt_txn.Log_arena.replay} stores every record of every
    log oldest first; in the default {!Spec_soft.Coalesce} mode all logs
    are gathered into one buffer, each cell keeps its newest entry, and
    each live cell is written exactly once.

    Threads here are deterministic interleavings (the test harness runs
    one transaction at a time); concurrency control is the application's
    job in the paper too (Section 4.3.3). *)

open Specpmt_pmalloc
open Specpmt_txn

type t

val max_threads : int
(** Largest thread count {!create} accepts — one reserved root slot per
    thread ({!Specpmt_backends.Slots.spec_mt_max_threads}). *)

val create :
  ?params:Spec_soft.params ->
  ?runtime_heaps:Heap.t array ->
  Heap.t ->
  threads:int ->
  t
(** Up to {!max_threads} threads (one reserved line-strided root slot
    each).  [runtime_heaps], when given (length = [threads]), places
    thread [i]'s runtime — its log blocks and allocator traffic — on its
    own carved sub-heap instead of the shared pool heap: the
    partitioning the shard-per-domain data plane needs so worker domains
    never allocate through a shared bump pointer or touch each other's
    cache lines.  The pool heap remains the recovery-side attachment
    point either way. *)

val thread : t -> int -> Ctx.backend
(** The transactional interface of one thread.  Its [recover] is the
    pool's {!recover}: every thread's log, not only this one's. *)

val runtime : t -> int -> Spec_soft.t
(** The underlying per-thread runtime — for reclamation triggers
    ({!Spec_soft.reclaim_now}) and crash-exploration drivers. *)

val threads : t -> int
(** Number of simulated threads this pool was created with. *)

val recover : t -> unit
(** Post-crash recovery across all thread logs, merged by timestamp
    (per the pool's {!Spec_soft.recovery_mode}), through the pool
    heap's device view: rebuilds the pool heap and any [runtime_heaps],
    restores, and reattaches every thread's arena. *)
