(* The YCSB workloads on the serial KV service: a saturation probe for
   capacity, then rounds of (set-up, rated Poisson run, crash, recover,
   audit) until the time budget is spent.  Modelled metrics come from
   the first round and must repeat exactly in every later one; host
   metrics are medians over rounds. *)

open Specpmt
module S = Svc.Service
module Sc = Svc.Scenario

type spec = {
  name : string;
  sc : Sc.spec;
  keys : int;
  ops : int;
  rate : float;  (** Poisson arrivals per simulated second in the rated run *)
}

(* The service settings every workload keeps. *)
let cfg keys = { S.shards = 4; batch_max = 8; depth = 32; keys }

(* Write path with the device cache exceeded: the 2 MiB table equals the
   2 MiB modelled cache, nearly every update is a key's first write (an
   index insert), and the adoption write set is large.  The op counts of
   both YCSB workloads are sized for several rounds per run (host
   metrics are medians over rounds) with >= 20 samples beyond p99.9. *)
let a_large =
  {
    name = "ycsb-a-large";
    sc = { (Sc.spec Sc.A) with Sc.dist = Sc.Uniform };
    keys = 262_144;
    ops = 20_000;
    rate = 1.0e6;
  }

(* Index and mirror read path: 95% short scans over a 64 KiB table that
   fits the cache, small adoption write set. *)
let e = { name = "ycsb-e"; sc = Sc.spec Sc.E; keys = 8_192; ops = 250_000; rate = 9.0e6 }

type inputs = {
  stream : (int * S.op) array;
  model : Model.t;
  sched : float array;  (** rated-run arrivals *)
  sat : float array;  (** saturation probe: every op due at t = 0 *)
}

let inputs sp ~seed =
  let stream = Sc.op_stream sp.sc ~ops:sp.ops ~keys:sp.keys ~seed in
  {
    stream;
    model = Model.build ~shards:(cfg sp.keys).S.shards ~keys:sp.keys stream;
    sched =
      Svc.Openloop.schedule
        { Svc.Openloop.rate = sp.rate; arrivals = Svc.Openloop.Poisson; seed }
        ~n:sp.ops;
    sat = Array.make sp.ops 0.0;
  }

let setup keys =
  let pm = Pmem.create ~seed:1 Pmem_config.default in
  let heap = Heap.create pm in
  (pm, S.create heap (cfg keys))

(* Set-up and recovery are timed from a collected heap (a full major
   collection first, outside the timing): a restarted process would
   start recovery with no collection debt, and without this the point
   at which a major cycle lands inside a short phase varies by seed. *)
let timed_quiet f =
  Gc.full_major ();
  Host.timed f

(* host times are normalised ns (Host.timed) *)
type round = {
  setup : float;
  r : Driver.result;
  host : float;
  recover_ns : float;
  recover_host : float;
  audit_bad : int;
  layer : (string * float) list;
}

let counter n = float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter n))

(* per-op device counters of a measured run *)
let device_layer (d : Stats.t) ops =
  let per v = float_of_int v /. ops in
  [
    ("pmem.loads_per_op", per d.Stats.loads);
    ("pmem.stores_per_op", per d.Stats.stores);
    ("pmem.clwbs_per_op", per d.Stats.clwbs);
    ("pmem.fences_per_op", per d.Stats.fences);
    ("pmem.read_lines_per_op", per d.Stats.pm_read_lines);
    ("pmem.write_lines_per_op", per d.Stats.pm_write_lines);
    ("pmem.evictions_per_op", per d.Stats.evictions);
    ( "pmem.seq_write_frac",
      if d.Stats.pm_write_lines = 0 then 0.0
      else float_of_int d.Stats.pm_write_lines_seq /. float_of_int d.Stats.pm_write_lines );
    ("pmem.bg_ns_per_op", d.Stats.bg_ns /. ops);
  ]

let recover_layer () =
  List.map
    (fun n -> (n, counter n))
    [ "recover.records_scanned"; "recover.entries_scanned"; "recover.data_writes" ]

let reclaim_layer ops =
  [
    ("reclaim.cycles", counter "reclaim.cycles");
    ("reclaim.bg_ns_per_op", counter "reclaim.bg_ns" /. ops);
    ("log.compact.entries_live", counter "log.compact.entries_live");
  ]

let saturation ?(record_batches = false) sp inp =
  let (_, svc), setup = timed_quiet (fun () -> setup sp.keys) in
  (setup, Driver.run ~record_batches ~sched:inp.sat svc inp.stream inp.model)

let rated ?spans sp inp =
  let (pm, svc), setup = timed_quiet (fun () -> setup sp.keys) in
  Option.iter (fun t -> Spans.set_device t pm) spans;
  Obs.Metrics.reset_all ();
  let g0 = Gc.quick_stat () in
  let r, host =
    Host.timed (fun () -> Driver.run ?spans ~sched:inp.sched svc inp.stream inp.model)
  in
  let g1 = Gc.quick_stat () in
  let ops = float_of_int sp.ops in
  for s = 0 to (cfg sp.keys).S.shards - 1 do
    Svc.Oindex.publish_shadow (S.oindex svc) ~shard:s
  done;
  let hits = counter "shadow.hits" and misses = counter "shadow.misses" in
  let layer =
    [
      ("admission.reject_frac", float_of_int r.Driver.rejects /. float_of_int r.Driver.attempts);
      ("admission.max_backlog", float_of_int r.Driver.max_backlog);
      ("batch.size_mean", Obs.Hist.mean (Obs.Hist.snapshot (Obs.Metrics.histogram "svc.batch_size")));
      ("shadow.hit_frac", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      ("gc.minor_words_per_op", (g1.Gc.minor_words -. g0.Gc.minor_words) /. ops);
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ]
    @ reclaim_layer ops @ device_layer r.Driver.dev ops
  in
  Pmem.crash pm;
  Obs.Metrics.reset_all ();
  let ns0 = (Pmem.stats pm).Stats.ns in
  let (), recover_host =
    timed_quiet (fun () ->
        Spans.span spans "svc.recover" ~op:(sp.ops - 1) (fun () -> S.recover svc))
  in
  let recover_ns = (Pmem.stats pm).Stats.ns -. ns0 in
  {
    setup;
    r;
    host;
    recover_ns;
    recover_host;
    audit_bad = Model.audit inp.model (S.peek svc);
    layer = layer @ recover_layer ();
  }

(* what must repeat exactly from round to round *)
let fingerprint rd =
  let r = rd.r in
  ( r.Driver.span_ns,
    r.Driver.dev.Stats.ns,
    r.Driver.dev.Stats.fences,
    r.Driver.dev.Stats.pm_write_lines,
    r.Driver.attempts,
    rd.recover_ns )

let run ?trace ~seed ~seconds sp =
  let inp = inputs sp ~seed in
  let t0 = Host.now_ns () in
  let sat_setup, sat = saturation ~record_batches:(trace <> None) sp inp in
  let first = rated sp inp in
  let mem = Report.mem_mb () in
  let rounds = ref [ first ] in
  if trace = None then
    while Host.now_ns () - t0 < seconds * 1_000_000_000 do
      rounds := rated sp inp :: !rounds
    done;
  let rounds = List.rev !rounds in
  (* at least three set-ups for the median *)
  let extra =
    List.init
      (max 0 (2 - List.length rounds))
      (fun _ -> snd (timed_quiet (fun () -> ignore (setup sp.keys))))
  in
  let setups = (sat_setup :: List.map (fun rd -> rd.setup) rounds) @ extra in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  let repeat = List.for_all (fun rd -> fingerprint rd = fingerprint first) rounds in
  if not repeat then note "modelled results differ between rounds";
  let lat, beyond = Report.latency_us first.r.Driver.lat in
  if beyond < 10 then note (Printf.sprintf "only %d samples beyond p99.9" beyond);
  let ops = float_of_int sp.ops in
  let failed =
    sat.Driver.wrong + sat.Driver.unacked
    + List.fold_left
        (fun n rd -> n + rd.r.Driver.wrong + rd.r.Driver.unacked + rd.audit_bad)
        0 rounds
  in
  let attempted = sp.ops + (List.length rounds * (sp.ops + sp.keys)) in
  let median f l = Report.median (List.map f l) in
  let per_op_us rd = rd.host /. ops /. 1e3 in
  let recover_host_ms rd = rd.recover_host /. 1e6 in
  let setup_s ns = ns /. 1e9 in
  let e2e =
    [ ("capacity_kops", ops /. sat.Driver.span_ns *. 1e6) ]
    @ lat
    @ [
        ( "media_wr_bytes_per_op",
          float_of_int (first.r.Driver.dev.Stats.pm_write_lines * Addr.line_size) /. ops );
        ("recover_ms", first.recover_ns /. 1e6);
        ("host_us_per_op", median per_op_us rounds);
        ("setup_s", median setup_s setups);
        ("recover_host_ms", median recover_host_ms rounds);
        ("mem_mb", mem);
        ("failed_frac", float_of_int failed /. float_of_int attempted);
      ]
  in
  let samples =
    [
      ("host_us_per_op", List.map per_op_us rounds);
      ("setup_s", List.map setup_s setups);
      ("recover_host_ms", List.map recover_host_ms rounds);
    ]
  in
  let layer, correct, failed, attempted =
    match trace with
    | None -> (first.layer @ lat, repeat, failed, attempted)
    | Some t ->
        let traced = rated ~spans:t sp inp in
        let probe = Probe.run t (cfg sp.keys) inp.stream inp.model sat.Driver.batches in
        let k = Host.norm_factor () in
        let h a = Spans.host a *. k and hs a = Spans.host_self a *. k in
        let txs = float_of_int probe.Probe.txs in
        let txn_words =
          List.fold_left (fun w n -> w +. Spans.total t n Spans.words_self) 0.0
            [ "txn.read"; "txn.write"; "txn.rmw"; "txn.scan" ]
        in
        let sim_ratio = probe.Probe.replay_sim_ns /. sat.Driver.drain_sim_ns in
        let c = Spans.conservation t in
        if not (Spans.conserved c) then note "trace conservation failed";
        if not (Spans.chains t) then note "a span does not chain to an op id";
        if fingerprint traced <> fingerprint first then note "tracing changed a modelled result";
        note (Printf.sprintf "probe.sim_ratio %s, %d spans kept, %d dropped"
                (Report.num sim_ratio) t.Spans.kept t.Spans.dropped);
        let layer =
          [
            ("submit.host_ns", Spans.mean t "svc.submit" h);
            ("drain.host_ns_per_op", Spans.total t "svc.drain" h /. ops);
            ("drain.sim_ns_per_op", Spans.total t "svc.drain" Spans.sim /. ops);
            ("seal.host_ns", Spans.mean t "gc.seal" h);
            ("seal.sim_ns", Spans.mean t "gc.seal" Spans.sim);
            ("seal.fences_per_op", Spans.total t "gc.seal" Spans.fences /. txs);
            ("seal.clwbs_per_op", Spans.total t "gc.seal" Spans.clwbs /. txs);
            ("txn.read.host_ns", Spans.mean t "txn.read" hs);
            ("txn.write.host_ns", Spans.mean t "txn.write" hs);
            ("txn.rmw.host_ns", Spans.mean t "txn.rmw" hs);
            ("txn.write.sim_ns", Spans.mean t "txn.write" Spans.sim_self);
            ("txn.minor_words", txn_words /. txs);
            ("log.bytes_per_tx", float_of_int probe.Probe.log_bytes /. txs);
            ("index.scan.host_ns", Spans.mean t "index.scan" h);
            ("index.scan.sim_ns", Spans.mean t "index.scan" Spans.sim);
            ("index.scan.loads", Spans.mean t "index.scan" Spans.loads);
            ("index.ensure.host_ns", Spans.mean t "index.ensure" h);
            ("index.ensure.sim_ns", Spans.mean t "index.ensure" Spans.sim);
            ("recover.log.sim_ms", Spans.total t "recover.log" Spans.sim /. 1e6);
            ("recover.log.host_ms", Spans.total t "recover.log" h /. 1e6);
            ("recover.index.host_ms", Spans.total t "recover.index" h /. 1e6);
            ("trace.overhead_frac", (traced.host /. first.host) -. 1.0);
          ]
        in
        let ok =
          repeat && sim_ratio = 1.0 && Spans.conserved c && Spans.chains t
          && fingerprint traced = fingerprint first
        in
        let bad = traced.r.Driver.wrong + traced.r.Driver.unacked + traced.audit_bad + probe.Probe.wrong in
        ( layer @ first.layer @ lat,
          ok,
          failed + bad,
          attempted + (2 * sp.ops) + (2 * sp.keys) )
  in
  {
    Report.workload = sp.name;
    rounds = List.length rounds;
    e2e_values = e2e;
    layer_values = layer;
    attempted;
    failed;
    correct = correct && failed = 0;
    notes = List.rev !notes;
    samples;
  }
