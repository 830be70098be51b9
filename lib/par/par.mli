(** Fixed-size domain pool with deterministic, index-ordered reduction.

    The harness's heavy loops — crash-space exploration, the bench grid,
    the service batch sweep — are embarrassingly parallel: every case
    builds its own simulated device and shares only read-only plan data.
    [Par.run] fans [n] independent jobs over a pool of OCaml domains and
    returns the results {e indexed by submission order}, so callers that
    fold the result array reproduce the serial output exactly: [jobs = 8]
    is byte-identical to [jobs = 1].

    Work distribution is an atomic work-index with chunked claiming:
    workers [Atomic.fetch_and_add] the next index (or chunk of indices)
    until the range is exhausted, which load-balances jobs of uneven
    cost without any queue allocation.

    Observability composes: each worker accumulates {!Specpmt_obs}
    metrics in its own domain-local registry, and the pool merges them
    into the calling domain's registry at join
    ({!Specpmt_obs.Metrics.absorb}), so counters and histograms
    aggregate across workers instead of racing.  Device counters need no
    merge: each job's simulated device keeps its own [Stats].
    Trace rings stay worker-local — harvest
    {!Specpmt_obs.Trace.recent} inside the job that emitted the events.

    Failure semantics: the first failing job {e by index} wins.  Workers
    stop claiming new work once any job has failed, and the recorded
    exception is re-raised (with its backtrace) on the calling domain
    after every worker has joined. *)

type error = {
  index : int;  (** job index whose execution raised *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

val default_jobs : unit -> int
(** [max 1 (min 8 (Domain.recommended_domain_count () - 1))] — leave a
    core for the coordinator, cap the pool at 8 (the harness's loops
    stop scaling past that, and over-subscribing domains hurts the
    OCaml runtime). *)

val run : ?jobs:int -> ?chunk:int -> n:int -> (int -> 'a) -> 'a array
(** [run ~n f] computes [[| f 0; ...; f (n-1) |]].

    [jobs] is the worker-domain count (defaults to {!default_jobs};
    clamped to at least 1 and at most [n]).  [jobs = 1] runs inline on
    the calling domain in ascending index order, spawning nothing — the
    serial reference semantics.  [chunk] (default 1) is how many
    consecutive indices a worker claims per atomic operation: raise it
    for very cheap jobs to cut contention.

    [f] must be safe to call from spawned domains: jobs must not share
    mutable state with each other (domain-local {!Specpmt_obs} state is
    already safe).  Jobs may run in any order and results arrive in
    submission order regardless.

    If any [f i] raises, the exception of the lowest failing index is
    re-raised on the caller after all workers join; remaining claimed
    work is abandoned (best effort — jobs already in flight still
    finish). *)

val map_list : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f xs] is {!run} over a list, preserving order. *)

(** {1 Long-lived workers}

    {!run} is the fan-out shape: a fixed range of independent jobs.
    Pipelines — a coordinator exchanging messages with resident domains,
    like the shard-per-domain data plane — need workers that live until
    told to stop.  {!spawn}/{!join} give them the same observability
    lifecycle as {!run} jobs: each worker accumulates metrics in its own
    domain-local registry, and the join merges them into the calling
    domain's. *)

type 'a worker

val spawn : (unit -> 'a) -> 'a worker
(** Spawn one resident worker domain.  The worker's exception (if any)
    is captured with its backtrace and re-raised at {!join}. *)

val join : 'a worker -> 'a
(** Join one worker, absorbing its metrics into the caller's registry
    first, then returning its result or re-raising its failure. *)

val join_all : 'a worker array -> 'a array
(** Join every worker in array order — all observability is absorbed
    before the lowest-index failure (if any) is re-raised, so no
    domain is left running and no worker's metrics are lost. *)
