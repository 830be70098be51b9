(** The shard-per-domain data plane: real OCaml 5 domains executing the
    sharded service.

    A router domain consumes a deterministic op stream
    ({!Scenario.op_stream}), forms per-shard batches positionally (flush
    at [batch_max], partials at stream end) and hands them over
    {!Spsc} rings to [domains] resident worker domains; shard [s] runs
    on domain [s mod domains], which owns the shard's
    {!Specpmt_backends.Spec_soft} runtime, group-commit batcher, carved
    log sub-heap and — shared with its other shards — one incoherent
    {!Specpmt_pmem.Pmem.fork_view} of the single media image.  Media
    access is partitioned by cache line (key regions, log regions and
    log-head root slots are all line-disjoint per shard), admission and
    ack accounting stay on the router, and the only cross-domain mutable
    state is the atomic {!Specpmt_txn.Tsc}.  Workers run the per-shard
    core ({!Shards}) the serial {!Service} runs inline.

    Because batch composition is positional, the [invariant] section of
    the report — ops, batches, sealed records, fences, read checksum,
    final table fingerprint, per-shard counts — is byte-identical across
    domain counts; only the [measured] (host wall clock) and [modelled]
    (per-domain simulated device time) sections may differ.

    Crash/recovery runs against the single shared image: {!crash}
    discards every per-domain cache (a power failure taking all cores'
    caches), and {!recover} replays the per-shard logs through the
    parent view via {!Specpmt_backends.Spec_mt.recover}. *)

open Specpmt_pmalloc
open Specpmt_backends

type config = {
  shards : int;  (** 1..{!Specpmt_backends.Spec_mt.max_threads} *)
  domains : int;  (** worker domains, 1..shards *)
  batch_max : int;
  depth : int;  (** per-shard inflight bound; >= batch_max *)
  keys : int;
  log_region_bytes : int;  (** per-shard carved log region, >= 64 KiB *)
}

val default_log_region_bytes : int
(** 2 MiB. *)

type t

val create : ?params:Spec_soft.params -> Heap.t -> config -> t
(** Build the plane on a freshly formatted root heap: allocates
    line-aligned per-shard key regions, carves per-shard log regions,
    detaches the parent cache, forks one view per domain, builds the
    partitioned {!Specpmt_backends.Spec_mt} pool and the core
    ({!Shards.create}: adoption, then the ordered index with its tree
    nodes in the carved sub-heaps), and detaches the parent cache
    again.  Each shard's tree is mirrored in DRAM, built through the
    shard's own view; workers publish the [shadow.*] counter deltas on
    clean stop, before detaching their caches.  The [reclaim_bytes]
    trigger is clamped to a quarter of the log region so compaction
    keeps each shard's chain inside its carved region.  Raises
    {!Shards.Too_large} when the device is too small. *)

type shard_report = {
  d_shard : int;
  d_domain : int;
  d_ops : int;  (** acked by the router *)
  d_batches : int;
  d_sealed : int;
}

type report = {
  domains : int;
  halted : bool;  (** crash drill: the router stopped mid-stream *)
  total_ops : int;
  reads : int;
  writes : int;
  rmws : int;  (** read-modify-write transactions acknowledged *)
  scans : int;  (** shard-local short scans acknowledged *)
  reads_sum : int;
      (** checksum over read, rmw and scan results (invariant) *)
  table_crc : int;  (** final table fingerprint; 0 on halted runs *)
  fences : int;
  batches : int;
  sealed_records : int;
  per_shard : shard_report list;
  wall_s : float;  (** measured host wall clock *)
  wall_ops_per_sec : float;
  wall_latency : Specpmt_obs.Hist.snapshot;  (** wall ns, admission->ack *)
  router_stalls : int;  (** ops that waited on shard capacity *)
  sim_ns_max : float;  (** modelled makespan: the slowest domain clock *)
  sim_ns_sum : float;
  sim_bg_ns : float;
  pm_write_lines : int;
  pm_read_lines : int;
}

val run :
  ?halt_after_batches:int ->
  ?on_ack:(idx:int -> value:int -> unit) ->
  t ->
  (int * Shards.op) array ->
  report
(** Spawn the workers, route the stream, join.  A clean run waits out
    every inflight op and detaches each worker's cache, so the parent
    afterwards observes the merged image ({!peek}, [table_crc]).
    Raises [Invalid_argument] on an out-of-range key or a
    {!Shards.op.Scan} of length < 1.

    All four op kinds run as single transactions ({!Shards.exec}) on
    the owning shard's domain; {!Shards.op.Scan} walks the shard's
    persistent ordered index ({!Oindex.scan}), whose tree nodes live in the shard's carved
    sub-heap — scans and index maintenance only ever touch lines the
    owning domain already holds, so the per-line ownership discipline
    is untouched.

    [halt_after_batches = n] is the deterministic crash drill: the
    router stops submitting the moment the [n]-th batch has been sent
    and the workers exit {e without} detaching — every acked op's log
    record is sealed on media, while unflushed in-place updates are
    still only in the per-domain caches, exactly the state {!crash}
    then makes permanent.  Acks already drained by the router before
    the halt are the run's acknowledged set ([per_shard.d_ops]).

    [on_ack ~idx ~value] fires on the router for every acknowledged op
    ([idx] is the stream position) the moment its completion is drained
    — the crash-safe ack stream audits are built on. *)

val crash : t -> unit
(** Discard every per-domain cache and crash the parent view: only what
    was flushed to media (sealed log records, allocator metadata)
    survives. *)

val recover : t -> unit
(** {!Shards.recover} through the parent view over the shared image,
    then reset admission, empty the rings and hand the replayed lines
    back to the views.  The plane serves again afterwards: call {!run}
    with a fresh stream. *)

val peek : t -> int -> int
(** Unmetered key read through the parent — valid between runs (after a
    clean join or {!recover}), when no worker cache is live. *)

val report_to_json : config -> report -> Specpmt_obs.Json.t
(** A {!Specpmt_obs.Sections} report: [invariant] (must be
    byte-identical across domain counts — CI diffs 1 vs N), [modelled]
    (simulated device time) and [measured] (domain count, placement and
    host wall clock). *)

val pp : Format.formatter -> config * report -> unit
