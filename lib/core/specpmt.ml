(** SpecPMT — speculatively persistent memory transactions.

    The public facade of the library: a reproduction of "SpecPMT:
    Speculative Logging for Resolving Crash Consistency Overhead of
    Persistent Memory" (ASPLOS 2023).

    {2 Quick start}

    {[
      let pm = Specpmt.Pmem.create Specpmt.Pmem_config.default in
      let heap = Specpmt.Heap.create pm in
      let tx = Specpmt.create_scheme heap "SpecSPMT" in
      tx.run_tx (fun ctx -> ctx.write addr 42);
      (* ... crash ... *)
      tx.recover ()
    ]}

    Sub-libraries re-exported here:
    - {!Pmem}: the persistent-memory device model,
    - {!Heap}: the persistent allocator,
    - {!Ctx}: the transactional interface every scheme implements,
    - {!Schemes}: software schemes (PMDK, Kamino-Tx, SPHT, SpecSPMT...),
    - {!Hw_schemes}: simulated-hardware schemes (EDE, HOOP, SpecHPMT...),
    - {!Pstruct}: the persistent data structures (ordered Pbtree index,
      treap, hash table, queue, array...),
    - {!Workload}: the STAMP port,
    - {!Run}: the measurement harness behind all figures,
    - {!Crashmc}: the deterministic crash-state exploration engine,
    - {!Svc}: the sharded KV service layer (one per-shard core under a
      serial and a shard-per-domain executor, group commit, admission,
      load generation),
    - {!Par}: the domain pool behind the harness's [--jobs] flags
      (deterministic index-ordered reduction),
    - {!Obs}: metrics, tracing and the JSON reports. *)

module Pmem = Specpmt_pmem.Pmem
module Pmem_config = Specpmt_pmem.Config
module Stats = Specpmt_pmem.Stats
module Addr = Specpmt_pmem.Addr
module Heap = Specpmt_pmalloc.Heap
module Ctx = Specpmt_txn.Ctx
module Log_arena = Specpmt_txn.Log_arena
module Checksum = Specpmt_txn.Checksum
module Schemes = Specpmt_backends.Registry
module Spec_soft = Specpmt_backends.Spec_soft
module Spec_mt = Specpmt_backends.Spec_mt
module Hw_schemes = Specpmt_hwtxn.Hw_registry
module Spec_hw = Specpmt_hwtxn.Spec_hw
module Epoch_coord = Specpmt_hwtxn.Epoch_coord
module Hwconfig = Specpmt_hwsim.Hwconfig
module Pstruct = Specpmt_pstruct
module Workload = Specpmt_stamp.Workload
module Profile = Specpmt_stamp.Profile
module Crashmc = Specpmt_crashmc.Crashmc
module Svc = Specpmt_svc
module Par = Specpmt_par.Par
module Obs = Specpmt_obs
module Json = Specpmt_obs.Json

(** All scheme names, software then hardware, in figure order. *)
let scheme_names =
  List.map Schemes.name Schemes.all
  @ List.map Hw_schemes.name Hw_schemes.all

(** Instantiate a scheme (software or simulated-hardware) by name on a
    formatted pool.  [spec_params] overrides the SpecPMT schemes'
    runtime parameters (rejected for any other scheme).  Raises
    [Invalid_argument] on unknown names. *)
let create_scheme ?spec_params heap name =
  match Schemes.of_name name with
  | Some k -> Schemes.create ?spec_params heap k
  | None -> (
      match Hw_schemes.of_name name with
      | Some k ->
          (match spec_params with
          | Some _ ->
              Fmt.invalid_arg "scheme %S takes no SpecPMT params" name
          | None -> ());
          Hw_schemes.create heap k
      | None -> Fmt.invalid_arg "unknown scheme %S" name)

(** The scheme's default SpecPMT runtime parameters ([None] for unknown
    names and non-SpecPMT schemes) — the one lookup the CLI and the bench
    driver share instead of each keeping a name table. *)
let spec_params_of_name name =
  Option.bind (Schemes.of_name name) Schemes.spec_params

module Run = struct
  (** The device's counters over the four windows of a run, which
      partition its whole tally: [other] is construction (pool format,
      backend creation), [prepare] the workload's setup, [work] its
      transactions and [drain] the background work drained after them. *)
  type phases = {
    other : Stats.t;
    prepare : Stats.t;
    work : Stats.t;
    drain : Stats.t;
  }

  (** One workload x scheme measurement — the raw material of every
      figure in the paper's evaluation. *)
  type measurement = {
    scheme : string;
    workload : string;
    ns : float;  (** simulated foreground time of the measured phase *)
    bg_ns : float;  (** simulated background-core time *)
    fences : int;
    clwbs : int;
    pm_write_lines : int;  (** persistent-media write traffic, lines *)
    pm_read_lines : int;
    log_bytes : int;  (** log footprint after drain *)
    checksum : int;  (** final-state digest (backend-independent) *)
    txs : int;
    updates : int;
    avg_tx_bytes : float;
    tx_latency : Obs.Hist.snapshot;
        (** per-transaction latency over the measured phase, simulated ns *)
    write_set : Obs.Hist.snapshot;  (** per-transaction write-set bytes *)
    phases : phases;  (** the measured phase is [work] + [drain] *)
    metrics : Json.t;
        (** registry dump (reclamation and log-compaction telemetry) *)
  }

  let default_mem = 64 * 1024 * 1024

  (** Run [workload] at [scale] under the scheme built by [make] on a
      fresh pool; setup is excluded from the measured phase; background
      work is drained inside it. *)
  let run_custom ?(seed = 1) ~make ~name (w : Workload.t) scale =
    Obs.Metrics.reset_all ();
    let pm =
      Pmem.create ~seed { Pmem_config.default with mem_size = default_mem }
    in
    let heap = Heap.create pm in
    let backend = make heap in
    let profiled, counters =
      Profile.wrap ~clock:(fun () -> (Pmem.stats pm).Stats.ns) backend
    in
    let built = Stats.copy (Pmem.stats pm) in
    let prepared = w.Workload.prepare scale heap profiled in
    let c0 = Profile.fresh () in
    c0.Profile.txs <- counters.Profile.txs;
    c0.Profile.updates <- counters.Profile.updates;
    c0.Profile.ws_bytes <- counters.Profile.ws_bytes;
    (* the distributions cover only the measured phase *)
    Profile.reset_histograms counters;
    let before = Stats.copy (Pmem.stats pm) in
    prepared.Workload.work ();
    let worked = Stats.copy (Pmem.stats pm) in
    backend.Ctx.drain ();
    let after = Stats.copy (Pmem.stats pm) in
    let d = Stats.diff before after in
    let checksum =
      Pmem.with_unmetered pm (fun () -> prepared.Workload.checksum ())
    in
    let txs = counters.Profile.txs - c0.Profile.txs in
    let updates = counters.Profile.updates - c0.Profile.updates in
    let ws_bytes = counters.Profile.ws_bytes - c0.Profile.ws_bytes in
    {
      scheme = name;
      workload = w.Workload.name;
      ns = d.Stats.ns;
      bg_ns = d.Stats.bg_ns;
      fences = d.Stats.fences;
      clwbs = d.Stats.clwbs;
      pm_write_lines = d.Stats.pm_write_lines;
      pm_read_lines = d.Stats.pm_read_lines;
      log_bytes = backend.Ctx.log_footprint ();
      checksum;
      txs;
      updates;
      avg_tx_bytes =
        (if txs = 0 then 0.0 else float_of_int ws_bytes /. float_of_int txs);
      tx_latency = Obs.Hist.snapshot counters.Profile.lat_hist;
      write_set = Obs.Hist.snapshot counters.Profile.ws_hist;
      phases =
        {
          other = built;
          prepare = Stats.diff built before;
          work = Stats.diff before worked;
          drain = Stats.diff worked after;
        };
      metrics = Obs.Metrics.dump ();
    }

  let run ?seed ~scheme (w : Workload.t) scale =
    run_custom ?seed
      ~make:(fun heap -> create_scheme heap scheme)
      ~name:scheme w scale

  (** {2 JSON reports}

      The machine-readable face of the harness: one object per
      measurement, schema-stable across PRs so the bench trajectory can
      be diffed.  See EXPERIMENTS.md, "JSON bench reports". *)

  let phase_to_json (s : Stats.t) =
    Json.Obj
      [
        ("fences", Json.Int s.Stats.fences);
        ("clwbs", Json.Int s.Stats.clwbs);
        ("nt_stores", Json.Int s.Stats.nt_stores);
        ("pm_write_lines", Json.Int s.Stats.pm_write_lines);
        ("pm_read_lines", Json.Int s.Stats.pm_read_lines);
      ]

  let phases_to_json p =
    Json.Obj
      [
        ("prepare", phase_to_json p.prepare);
        ("work", phase_to_json p.work);
        ("drain", phase_to_json p.drain);
        ("other", phase_to_json p.other);
      ]

  (** One object per measurement: the [results] rows of every report that
      carries measurements. *)
  let measurement_to_json (m : measurement) =
    Json.Obj
      [
        ("scheme", Json.Str m.scheme);
        ("workload", Json.Str m.workload);
        ("ns", Json.Float m.ns);
        ("bg_ns", Json.Float m.bg_ns);
        ("fences", Json.Int m.fences);
        ("clwbs", Json.Int m.clwbs);
        ("pm_write_lines", Json.Int m.pm_write_lines);
        ("pm_read_lines", Json.Int m.pm_read_lines);
        ("log_bytes", Json.Int m.log_bytes);
        ("checksum", Json.Str (Printf.sprintf "%x" m.checksum));
        ("txs", Json.Int m.txs);
        ("updates", Json.Int m.updates);
        ("avg_tx_bytes", Json.Float m.avg_tx_bytes);
        ("tx_latency_ns", Obs.Hist.to_json m.tx_latency);
        ("write_set_bytes", Obs.Hist.to_json m.write_set);
        ("phases", phases_to_json m.phases);
        ("metrics", m.metrics);
      ]
end
