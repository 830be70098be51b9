(* dp-b: YCSB-B through the shard-per-domain data plane — router plus one
   worker domain, SPSC rings, per-domain device views and cache detach.
   Rounds of (set-up, [Dataplane.run], crash, recover, audit) until the
   time budget is spent.  [Dataplane.run] is timed whole: cutting the
   stream into pieces to interleave the reference kernel would change the
   batches and with them the modelled makespan. *)

open Specpmt
module D = Svc.Dataplane

let name = "dp-b"
let keys = 8_192
(* Small enough that no shard's log reaches the reclaim trigger, so the
   log a crash leaves — and with it recovery's work — does not depend on
   where the seed puts the crash in a compaction cycle.  And small
   enough for ~15-20 rounds per run: a round's host time moves by up to
   ±30% with how the OS places the router and the worker. *)
let ops = 125_000

let cfg =
  {
    D.shards = 4;
    domains = 1;
    batch_max = 8;
    depth = 32;
    keys;
    log_region_bytes = D.default_log_region_bytes;
  }

let setup () =
  let pm = Pmem.create ~seed:1 Pmem_config.default in
  let heap = Heap.create pm in
  (pm, D.create heap cfg)

(* host times are normalised ns (Host.timed) *)
type round = {
  setup : float;
  r : D.report;
  host : float;
  wrong : int;
  recover_ns : float;
  recover_host : float;
  audit_bad : int;
  layer : (string * float) list;
}

let round ?spans stream (model : Model.t) =
  let (pm, plane), setup = Ycsb.timed_quiet setup in
  Option.iter (fun t -> Spans.set_device t pm) spans;
  Obs.Metrics.reset_all ();
  let wrong = ref 0 and acked = Bytes.make ops '\000' in
  let on_ack ~idx ~value =
    if Bytes.get acked idx <> '\000' || value <> model.Model.expect.(idx) then incr wrong;
    Bytes.set acked idx '\001'
  in
  let g0 = Gc.quick_stat () in
  let cpu = ref 0.0 and wall = ref 0 in
  let r, host =
    Host.timed ~domains:2 (fun () ->
        let c0 = Sys.time () and w0 = Host.now_ns () in
        let r = Spans.span spans "dp.run" ~op:0 (fun () -> D.run ~on_ack plane stream) in
        cpu := Sys.time () -. c0;
        wall := Host.now_ns () - w0;
        r)
  in
  let g1 = Gc.quick_stat () in
  let n = float_of_int ops in
  let hits = Ycsb.counter "shadow.hits" and misses = Ycsb.counter "shadow.misses" in
  let per v = float_of_int v /. n in
  let layer =
    [
      ("dataplane.router_stalls_per_op", per r.D.router_stalls);
      ("dataplane.cpu_per_wall", !cpu /. (float_of_int !wall /. 1e9));
      ("shadow.hit_frac", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      ("pmem.fences_per_op", per r.D.fences);
      ("pmem.read_lines_per_op", per r.D.pm_read_lines);
      ("pmem.write_lines_per_op", per r.D.pm_write_lines);
      ("pmem.bg_ns_per_op", r.D.sim_bg_ns /. n);
      ("batch.size_mean", float_of_int r.D.total_ops /. float_of_int r.D.batches);
      ("gc.minor_words_per_op", (g1.Gc.minor_words -. g0.Gc.minor_words) /. n);
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ]
    @ Ycsb.reclaim_layer n
  in
  D.crash plane;
  Obs.Metrics.reset_all ();
  let ns0 = (Pmem.stats pm).Stats.ns in
  let (), recover_host =
    Ycsb.timed_quiet (fun () -> Spans.span spans "dp.recover" ~op:(ops - 1) (fun () -> D.recover plane))
  in
  let recover_ns = (Pmem.stats pm).Stats.ns -. ns0 in
  let recover_layer = Ycsb.recover_layer () in
  let unacked = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr unacked) acked;
  {
    setup;
    r;
    host;
    wrong = !wrong + !unacked;
    recover_ns;
    recover_host;
    audit_bad = Model.audit model (D.peek plane);
    layer = layer @ recover_layer @ [ ("recover.log.sim_ms", recover_ns /. 1e6) ];
  }

let fingerprint rd =
  let r = rd.r in
  (r.D.sim_ns_max, r.D.fences, r.D.pm_write_lines, r.D.reads_sum, r.D.table_crc, rd.recover_ns)

let run ?trace ~seed ~seconds () =
  let stream = Svc.Scenario.op_stream (Svc.Scenario.spec Svc.Scenario.B) ~ops ~keys ~seed in
  let model = Model.build ~shards:cfg.D.shards ~keys stream in
  let t0 = Host.now_ns () in
  let first = round stream model in
  let mem = Report.mem_mb () in
  let rounds = ref [ first ] in
  if trace = None then
    while Host.now_ns () - t0 < seconds * 1_000_000_000 do
      rounds := round stream model :: !rounds
    done;
  let rounds = List.rev !rounds in
  let extra =
    List.init (max 0 (3 - List.length rounds)) (fun _ ->
        snd (Ycsb.timed_quiet (fun () -> ignore (setup ()))))
  in
  let setups = List.map (fun rd -> rd.setup) rounds @ extra in
  let notes = ref [] in
  let repeat = List.for_all (fun rd -> fingerprint rd = fingerprint first) rounds in
  if not repeat then notes := "modelled results differ between rounds" :: !notes;
  let n = float_of_int ops in
  let failed = List.fold_left (fun f rd -> f + rd.wrong + rd.audit_bad) 0 rounds in
  let attempted = List.length rounds * (ops + keys) in
  let median f l = Report.median (List.map f l) in
  let per_op_us rd = rd.host /. n /. 1e3 in
  let recover_host_ms rd = rd.recover_host /. 1e6 in
  let setup_s ns = ns /. 1e9 in
  let e2e =
    [
      ("capacity_kops", n /. first.r.D.sim_ns_max *. 1e6);
      ( "media_wr_bytes_per_op",
        float_of_int (first.r.D.pm_write_lines * Addr.line_size) /. n );
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
    | None -> (("recover.log.host_ms", median recover_host_ms rounds) :: first.layer, repeat, failed, attempted)
    | Some t ->
        let traced = round ~spans:t stream model in
        let same = fingerprint traced = fingerprint first in
        if not same then notes := "tracing changed a modelled result" :: !notes;
        ( ("trace.overhead_frac", (traced.host /. first.host) -. 1.0)
          :: ("recover.log.host_ms", median recover_host_ms rounds)
          :: first.layer,
          repeat && same && Spans.chains t,
          failed + traced.wrong + traced.audit_bad,
          attempted + ops + keys )
  in
  {
    Report.workload = name;
    rounds = List.length rounds;
    e2e_values = e2e;
    layer_values = layer;
    attempted;
    failed;
    correct = correct && failed = 0;
    notes = List.rev !notes;
    samples;
  }
