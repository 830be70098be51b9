(** The service layer's one load driver: scheduled arrivals,
    coordinated-omission-safe latency, goodput vs offered load, and
    recovery under load.

    {b One driver, three arrival processes.}  {!run} releases every op
    of a {!Scenario} stream at some virtual time, backlogs released ops
    per shard until admission takes them, and measures each op from its
    release to its ack.  {!Poisson} and {!Burst} are {e open-loop}: ops
    arrive on a precomputed schedule whether or not the service has
    kept up, so the gap between offered load and {e goodput} (acks per
    second of virtual time) shows overload — a closed loop slows its own
    offered load down the moment the service saturates.  {!Closed} is
    the classic closed loop of the batch-size sweeps: the first
    [clients] ops are released at t = 0 and the k-th ack releases op
    [clients + k - 1] at that ack's virtual time, so released ops queue
    in FIFO order and no client starves.

    {b Determinism.}  The schedule is a seeded pure function (closed:
    a function of the acks), and the driver's clock is the device
    model's simulated ns plus an idle-jump offset (waiting for the next
    arrival costs no device time).  Nothing reads the host clock, so a
    report is a pure function of (stream, config, service config):
    byte-identical across [--jobs], domain placement and host load.

    {b Coordinated omission.}  Latency is measured from each op's
    {e scheduled arrival} to its ack.  Ops held in the backlog after an
    admission shed keep accruing latency the whole time; nothing is
    re-timed from its eventually-successful submit. *)

type arrivals =
  | Poisson  (** exponential inter-arrival gaps *)
  | Burst of { on_ns : float; off_ns : float }
      (** on/off (bursty) arrivals: Poisson inside [on_ns] windows —
          intensified so the long-run mean stays [rate] — and silent
          for [off_ns] between them *)
  | Closed of { clients : int }
      (** closed loop: each ack releases the next op ([rate] and [seed]
          unused); [clients >= ops] is the saturation probe *)

type config = {
  rate : float;
      (** mean offered arrival rate, ops per second of simulated time;
          [<= 0] is the saturation probe (every op due at t = 0) *)
  arrivals : arrivals;
  seed : int;
}

val arrivals_of_string : string -> (arrivals, string) result
(** Parses the open-loop processes: ["poisson"], ["burst"] (default
    0.2 ms / 0.2 ms windows) or ["burst:ON_MS:OFF_MS"] (in ms). *)

val schedule : config -> n:int -> float array
(** The first [n] arrival times (simulated ns, non-decreasing) of this
    config — a seeded pure function.  All zeros when [rate <= 0].
    Raises [Invalid_argument] on {!Closed}, whose arrivals are acks. *)

type report = {
  o_config : config;
  svc_config : Service.config;
  ops : int;  (** stream length; every op completes before return *)
  reads : int;
  writes : int;
  rmws : int;
  scans : int;
  reads_sum : int;  (** read/rmw/scan value sum, as {!Dataplane.report}'s *)
  attempts : int;  (** submit attempts, including re-offers after sheds *)
  rejects : int;  (** admission sheds suffered by backlog heads *)
  max_backlog : int;  (** high-water mark of arrived-but-unadmitted ops *)
  last_arrival_ns : float;  (** when the final op was released *)
  span_ns : float;  (** virtual time from start to the last ack *)
  offered_ops_per_sec : float;
      (** [ops / last_arrival]; for the saturation probe (all arrivals
          at t = 0) it equals the goodput, i.e. the measured capacity *)
  goodput_ops_per_sec : float;  (** completed acks per virtual second *)
  fences : int;
  fences_per_op : float;
  latency : Specpmt_obs.Hist.snapshot;
      (** release -> ack, simulated ns (CO-safe) *)
  shards : Service.shard_stats list;  (** one per shard, in shard order *)
}

val run : Service.t -> config -> (int * Service.op) array -> report
(** Drive the whole stream through the service under the config's
    arrival process and return when every op has been acknowledged.
    Stream indices ride the completion's [c_client] field, so streams
    must be consumed by a fresh {!Service.t} per run.  Raises
    [Invalid_argument] on an empty stream or [clients < 1]. *)

val report_to_json : report -> Specpmt_obs.Json.t
(** A {!Specpmt_obs.Sections} report: [invariant] holds the config echo
    (all but [rate]), the op-kind counts, [reads_sum], attempts/rejects/
    max_backlog, fences and the [per_shard] list; [modelled] holds
    [rate], the arrival and span times, offered/goodput, fences per op
    and the CO-safe latency histogram.  [measured] is empty: nothing
    reads the host clock. *)

val pp : Format.formatter -> report -> unit
(** Human-readable summary (the [ycsb] and [svc-bench] CLI output). *)

(** {1 Recovery under load}

    Kill the {!Dataplane} mid-traffic at a deterministic batch fuse,
    crash, recover, and resume under the arrival backlog. *)

type recovery_report = {
  rv_fuse : int;  (** the batch fuse the run halted at *)
  rv_halted : bool;  (** false if the stream ran out before the fuse *)
  rv_recover_ns : float;  (** simulated device time of recovery *)
  rv_audit_failures : int;  (** cells violating acked-durable/unacked-invisible *)
  rv_acked_before : int;  (** acks drained before the crash (timing-dependent) *)
  rv_backlog : int;  (** unacked ops resubmitted after recovery *)
  rv_resumed : int;  (** ops acknowledged by the resumed run *)
  rv_recover_wall_s : float;
  rv_first_ack_wall_s : float;  (** resume start -> first ack (wall) *)
  rv_rto_wall_s : float;
      (** RTO: restart -> first post-restart ack = recover wall time +
          first-ack wall time *)
  rv_total_wall_s : float;
}

val recovery_under_load :
  ?params:Specpmt_backends.Spec_soft.params ->
  Specpmt_pmalloc.Heap.t ->
  Dataplane.config ->
  (int * Service.op) array ->
  fuse_batches:int ->
  recovery_report
(** Build a {!Dataplane} on the heap, run the stream with
    [halt_after_batches = fuse_batches] (the one-line reproducible
    fuse), {!Dataplane.crash}, {!Dataplane.recover}, audit every cell
    (last acked value, or initial if never acked, or a later write
    sealed in a batch whose ack never drained), then resume with the
    unacknowledged suffix as the arrival backlog and time the first
    post-restart ack.  Streams must be read/write only — the audit
    attributes cell states to unique write values, so [Rmw]/[Scan]
    streams raise [Invalid_argument]. *)

val recovery_to_json : recovery_report -> Specpmt_obs.Json.t
(** A {!Specpmt_obs.Sections} report: [invariant] (fuse, halted flag,
    audit failures), [modelled] (the simulated recovery ns) and
    [measured] (the ack/backlog split, which depends on router/worker
    timing, and the wall-clock RTO). *)

val pp_recovery : Format.formatter -> recovery_report -> unit
