open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_svc
module Hist = Specpmt_obs.Hist
module Json = Specpmt_obs.Json

(* Acceptance tests for the service's one load driver: the closed loop
   as an arrival process (held time, fairness, its saturation limit),
   coordinated-omission-safe open-loop latency, zipf/admission
   statistical coverage, scenario mixes, Rmw/Scan semantics, open-loop
   determinism + the saturation knee, and recovery under load. *)

let mk_svc ?(seed = 5) cfg =
  let pm = Pmem.create ~seed Config.small in
  let heap = Heap.create pm in
  (pm, Service.create heap cfg)

(* a read/write stream: YCSB-A's key draw with read fraction [read] *)
let rw_stream ~read ~theta ~ops ~keys ~seed =
  Scenario.op_stream
    { (Scenario.spec ~theta Scenario.A) with read; update = 1.0 -. read }
    ~ops ~keys ~seed

let closed clients =
  { Openloop.rate = 0.0; arrivals = Openloop.Closed { clients }; seed = 0 }

(* ---------- closed loop: held time lands in the latency ---------- *)

(* depth 1 under 4 clients: each op is released at an ack and then waits
   behind the three ops released before it, so the client-side p50
   (release -> ack) is at least 3x the shard-side p50 (admission -> ack):
   time held after a shed is charged to the op that suffered it.
   Releases are served in FIFO order, so no client starves and the p99
   stays far below the run's span. *)
let test_held_time_in_p99 () =
  let keys = 16 in
  let _, svc =
    mk_svc { Service.shards = 1; batch_max = 1; depth = 1; keys }
  in
  let r =
    Openloop.run svc (closed 4)
      (rw_stream ~read:0.0 ~theta:0.0 ~ops:120 ~keys ~seed:5)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sheds happened (%d rejects)" r.Openloop.rejects)
    true (r.Openloop.rejects > 0);
  let client_p50 = Hist.quantile r.Openloop.latency 0.5 in
  let client_p99 = Hist.quantile r.Openloop.latency 0.99 in
  let shard = List.hd r.Openloop.shards in
  let shard_p50 = Hist.quantile shard.Service.s_latency 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "client p50 %d >= 3x shard p50 %d" client_p50 shard_p50)
    true
    (client_p50 >= 3 * shard_p50);
  Alcotest.(check bool)
    (Printf.sprintf "client p99 %d < span/4 %.0f: no client starves"
       client_p99 (r.Openloop.span_ns /. 4.0))
    true
    (float_of_int client_p99 < r.Openloop.span_ns /. 4.0)

(* ---------- satellite: zipf_sampler statistics ---------- *)

let test_zipf_stats () =
  let st = Random.State.make [| 42 |] in
  let n = 1024 and draws = 30_000 in
  let sample = Scenario.zipf_sampler ~n ~theta:0.99 st in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = sample () in
    Alcotest.(check bool) "in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  (* H(1024, 0.99) ~ 7.5: p(rank 0) ~ 0.13, top-10 mass ~ 0.39 *)
  let frac k = float_of_int counts.(k) /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "head mass %.3f >= 0.08 at theta=0.99" (frac 0))
    true
    (frac 0 >= 0.08);
  let top10 = ref 0 in
  for k = 0 to 9 do
    top10 := !top10 + counts.(k)
  done;
  let top10 = float_of_int !top10 /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "top-10 mass %.3f in [0.25, 0.6]" top10)
    true
    (top10 >= 0.25 && top10 <= 0.6);
  (* theta <= 0 is uniform: every bin within 25% of the expectation *)
  let n = 16 and draws = 32_000 in
  let sample = Scenario.zipf_sampler ~n ~theta:0.0 st in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = sample () in
    counts.(k) <- counts.(k) + 1
  done;
  let expect = draws / n in
  Array.iteri
    (fun k c ->
      Alcotest.(check bool)
        (Printf.sprintf "uniform bin %d: %d within 25%% of %d" k c expect)
        true
        (c >= expect * 3 / 4 && c <= expect * 5 / 4))
    counts;
  (* n = 1 degenerates to the only key, at any theta *)
  List.iter
    (fun theta ->
      let sample = Scenario.zipf_sampler ~n:1 ~theta st in
      for _ = 1 to 50 do
        Alcotest.(check int) "n=1 always draws 0" 0 (sample ())
      done)
    [ 0.0; 0.99 ]

(* ---------- satellite: admission accounting under interleaving ---------- *)

let test_admission_interleaved () =
  let a : int Admission.t = Admission.create ~depth:3 in
  let accept x =
    match Admission.offer a x with
    | Admission.Accepted -> ()
    | Admission.Rejected _ -> Alcotest.fail "expected accept"
  in
  let reject x =
    match Admission.offer a x with
    | Admission.Accepted -> Alcotest.fail "expected reject"
    | Admission.Rejected _ -> ()
  in
  accept 1;
  accept 2;
  accept 3;
  reject 4;
  reject 5;
  Alcotest.(check int) "queued" 3 (Admission.queued a);
  Alcotest.(check int) "inflight" 3 (Admission.inflight a);
  Alcotest.(check (list int)) "take 2 in order" [ 1; 2 ]
    (Admission.take_up_to a 2);
  Alcotest.(check int) "queued after take" 1 (Admission.queued a);
  Alcotest.(check int) "inflight unchanged by take" 3 (Admission.inflight a);
  (* dequeued-but-unacked requests still hold admission slots *)
  reject 6;
  Admission.ack a 2;
  Alcotest.(check int) "inflight after ack" 1 (Admission.inflight a);
  accept 7;
  Alcotest.(check (list int)) "take rest" [ 3; 7 ] (Admission.take_up_to a 10);
  Admission.ack a 1;
  Alcotest.(check bool) "over-ack raises" true
    (match Admission.ack a 2 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Admission.ack a 1;
  Alcotest.(check int) "accepted total" 4 (Admission.accepted a);
  Alcotest.(check int) "rejected total" 3 (Admission.rejected a);
  Alcotest.(check int) "acked total" 4 (Admission.acked a);
  Alcotest.(check int) "max_inflight" 3 (Admission.max_inflight a);
  accept 8;
  Admission.clear a;
  Alcotest.(check int) "clear empties the queue" 0 (Admission.queued a);
  Alcotest.(check int) "clear zeroes inflight" 0 (Admission.inflight a);
  Alcotest.(check int) "clear keeps accepted" 5 (Admission.accepted a);
  Alcotest.(check int) "clear keeps rejected" 3 (Admission.rejected a);
  Alcotest.(check int) "clear keeps acked" 4 (Admission.acked a);
  accept 9;
  Alcotest.(check int) "serves again after clear" 1 (Admission.queued a)

(* ---------- scenario: mix fractions and stream well-formedness ---------- *)

let test_scenario_mixes () =
  let ops = 4000 and keys = 512 in
  List.iter
    (fun mix ->
      let sp = Scenario.spec mix in
      let stream = Scenario.op_stream sp ~ops ~keys ~seed:11 in
      Alcotest.(check int)
        (Scenario.mix_to_string mix ^ ": stream length")
        ops (Array.length stream);
      let t = Scenario.tally stream in
      let frac n = float_of_int n /. float_of_int ops in
      let close name got want =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s %.3f within 0.03 of %.2f"
             (Scenario.mix_to_string mix) name got want)
          true
          (Float.abs (got -. want) <= 0.03)
      in
      close "reads" (frac t.Shards.reads) sp.Scenario.read;
      close "writes"
        (frac t.Shards.writes)
        (sp.Scenario.update +. sp.Scenario.insert);
      close "rmws" (frac t.Shards.rmws) sp.Scenario.rmw;
      close "scans" (frac t.Shards.scans) sp.Scenario.scan;
      Array.iter
        (fun (k, op) ->
          Alcotest.(check bool) "key in range" true (k >= 0 && k < keys);
          match op with
          | Service.Scan len ->
              Alcotest.(check bool) "scan len in [1, scan_max]" true
                (len >= 1 && len <= sp.Scenario.scan_max)
          | _ -> ())
        stream;
      (* determinism: same inputs, same stream *)
      Alcotest.(check bool) "stream deterministic" true
        (stream = Scenario.op_stream sp ~ops ~keys ~seed:11))
    Scenario.all_mixes;
  (* D's latest distribution: reads cluster near the insert frontier *)
  let spd = Scenario.spec Scenario.D in
  let stream = Scenario.op_stream spd ~ops ~keys ~seed:7 in
  let read_keys =
    Array.to_list stream
    |> List.filter_map (fun (k, op) ->
           match op with Service.Read -> Some k | _ -> None)
  in
  let near_frontier =
    List.length (List.filter (fun k -> k >= keys / 4) read_keys)
  in
  Alcotest.(check bool)
    (Printf.sprintf "latest reads skew to recent keys (%d/%d)" near_frontier
       (List.length read_keys))
    true
    (float_of_int near_frontier
    >= 0.8 *. float_of_int (List.length read_keys))

(* ---------- Rmw and Scan semantics through the serial service ---------- *)

let test_rmw_scan_semantics () =
  let keys = 64 in
  let _, svc =
    mk_svc { Service.shards = 3; batch_max = 4; depth = 8; keys }
  in
  let completions = ref [] in
  let submit_drain key op =
    (match Service.submit svc ~client:0 ~key op with
    | Admission.Accepted -> ()
    | Admission.Rejected _ -> Alcotest.fail "unexpected shed");
    match Service.drain svc with
    | [ c ] ->
        completions := c :: !completions;
        c.Service.value
    | cs -> Alcotest.fail (Printf.sprintf "%d completions" (List.length cs))
  in
  let _ = submit_drain 5 (Service.Write 10) in
  Alcotest.(check int) "rmw returns old + delta" 17
    (submit_drain 5 (Service.Rmw 7));
  Alcotest.(check int) "rmw persisted" 17 (Service.peek svc 5);
  Alcotest.(check int) "rmw composes" 18 (submit_drain 5 (Service.Rmw 1));
  (* Scan semantics: ordered walk of the shard's POPULATED keys from
     the anchor — only keys a client write has touched are visible.
     Populate a few more keys of key 5's shard, then model the walk
     from the sorted populated row. *)
  let shard = Service.shard_of_key svc 5 in
  let row = Service.owned_keys svc shard in
  Alcotest.(check bool) "key 5 is in its shard's row" true
    (Array.exists (fun k -> k = 5) row);
  (* populate every 3rd owned key besides 5 (writes also index them) *)
  Array.iteri
    (fun i k -> if i mod 3 = 0 && k <> 5 then
        ignore (submit_drain k (Service.Write (100 + k))))
    row;
  let populated =
    Array.to_list row
    |> List.filter (fun k -> Oindex.is_populated (Service.oindex svc) k)
  in
  Alcotest.(check bool) "populated keys include 5" true
    (List.mem 5 populated);
  let expect ~anchor len =
    let window =
      List.filter (fun k -> k >= anchor) populated |> List.filteri (fun i _ -> i < len)
    in
    List.fold_left
      (fun acc k -> ((acc * 31) + k + Service.peek svc k) land max_int)
      0 window
  in
  Alcotest.(check int) "scan 4 checksums the window" (expect ~anchor:5 4)
    (submit_drain 5 (Service.Scan 4));
  Alcotest.(check int) "scan 1 is a point checksum"
    ((5 + 18) land max_int)
    (submit_drain 5 (Service.Scan 1));
  Alcotest.(check int) "scan clips at the populated end"
    (expect ~anchor:5 (Array.length row + 10))
    (submit_drain 5 (Service.Scan (Array.length row + 10)));
  (* unpopulated tail: an anchor past every populated key scans nothing *)
  let max_pop = List.fold_left max 0 populated in
  (match
     Array.to_list row |> List.filter (fun k -> k > max_pop)
   with
  | [] -> ()
  | k :: _ ->
      Alcotest.(check int) "scan past the populated set is 0" 0
        (submit_drain k (Service.Scan 4)));
  Alcotest.(check bool) "scan 0 raises" true
    (match Service.submit svc ~client:0 ~key:5 (Service.Scan 0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- open-loop schedules ---------- *)

let test_schedules () =
  let n = 20_000 in
  let rate = 1e6 in
  let sched =
    Openloop.schedule { Openloop.rate; arrivals = Openloop.Poisson; seed = 9 }
      ~n
  in
  for i = 1 to n - 1 do
    if sched.(i) < sched.(i - 1) then Alcotest.fail "schedule not monotone"
  done;
  (* mean inter-arrival within 5% of 1/rate over 20k gaps *)
  let mean = sched.(n - 1) /. float_of_int (n - 1) in
  let want = 1e9 /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "poisson mean gap %.1f within 5%% of %.1f" mean want)
    true
    (Float.abs (mean -. want) /. want <= 0.05);
  (* burst: every arrival lands inside an ON window, mean rate holds *)
  let on_ns = 100_000.0 and off_ns = 300_000.0 in
  let sched =
    Openloop.schedule
      { Openloop.rate; arrivals = Openloop.Burst { on_ns; off_ns }; seed = 9 }
      ~n
  in
  let cycle = on_ns +. off_ns in
  Array.iter
    (fun t ->
      let pos = Float.rem t cycle in
      if pos >= on_ns then
        Alcotest.fail (Printf.sprintf "arrival at %.0f is in an OFF window" t))
    sched;
  let mean = sched.(n - 1) /. float_of_int (n - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "burst mean gap %.1f within 15%% of %.1f" mean want)
    true
    (Float.abs (mean -. want) /. want <= 0.15);
  (* saturation probe: rate <= 0 puts everything at t = 0 *)
  let sat =
    Openloop.schedule
      { Openloop.rate = 0.0; arrivals = Openloop.Poisson; seed = 9 }
      ~n:16
  in
  Array.iter (fun t -> Alcotest.(check (float 0.0)) "t=0" 0.0 t) sat

(* ---------- open-loop: determinism, CO accounting, the knee ---------- *)

let ol_svc_cfg = { Service.shards = 4; batch_max = 8; depth = 32; keys = 256 }

let ol_stream ops =
  rw_stream ~read:0.5 ~theta:0.9 ~ops ~keys:ol_svc_cfg.Service.keys ~seed:23

let ol_run ~rate stream =
  let _, svc = mk_svc ol_svc_cfg in
  Openloop.run svc { Openloop.rate; arrivals = Openloop.Poisson; seed = 7 }
    stream

let test_openloop_deterministic () =
  let stream = ol_stream 600 in
  let j r = Json.to_string (Openloop.report_to_json r) in
  let r1 = ol_run ~rate:0.0 stream and r2 = ol_run ~rate:0.0 stream in
  Alcotest.(check string) "saturation probe byte-identical" (j r1) (j r2);
  let rate = r1.Openloop.goodput_ops_per_sec *. 0.5 in
  let r3 = ol_run ~rate stream and r4 = ol_run ~rate stream in
  Alcotest.(check string) "rated run byte-identical" (j r3) (j r4)

(* the saturation probe is also the directed CO test: every op arrives
   at t = 0, so op latencies grow with queue position and the p99 must
   be of the order of the whole span — a generator that re-times ops
   from their eventual submit would report a p99 near the per-batch
   service time instead *)
let test_openloop_co_latency () =
  let r = ol_run ~rate:0.0 (ol_stream 600) in
  Alcotest.(check int) "all ops complete" 600 r.Openloop.ops;
  let p99 = float_of_int (Hist.quantile r.Openloop.latency 0.99) in
  Alcotest.(check bool)
    (Printf.sprintf "CO-safe p99 %.0f >= span/4 %.0f" p99
       (r.Openloop.span_ns /. 4.0))
    true
    (p99 >= r.Openloop.span_ns /. 4.0)

let test_openloop_knee () =
  let stream = ol_stream 800 in
  let cap = (ol_run ~rate:0.0 stream).Openloop.goodput_ops_per_sec in
  Alcotest.(check bool) "capacity positive" true (cap > 0.0);
  let low = ol_run ~rate:(0.3 *. cap) stream in
  let over = ol_run ~rate:(3.0 *. cap) stream in
  (* below the knee goodput tracks offered load *)
  Alcotest.(check bool)
    (Printf.sprintf "low rate: goodput %.0f within 20%% of offered %.0f"
       low.Openloop.goodput_ops_per_sec low.Openloop.offered_ops_per_sec)
    true
    (Float.abs
       (low.Openloop.goodput_ops_per_sec /. low.Openloop.offered_ops_per_sec
      -. 1.0)
    <= 0.2);
  (* past the knee goodput pins at capacity while offered load rises *)
  Alcotest.(check bool)
    (Printf.sprintf "overload: goodput %.0f <= 1.1x capacity %.0f"
       over.Openloop.goodput_ops_per_sec cap)
    true
    (over.Openloop.goodput_ops_per_sec <= 1.1 *. cap);
  Alcotest.(check bool) "overload sheds" true (over.Openloop.rejects > 0);
  Alcotest.(check bool) "overload p99 above low-rate p99" true
    (Hist.quantile over.Openloop.latency 0.99
    > Hist.quantile low.Openloop.latency 0.99)

(* ---------- closed loop: its limits ---------- *)

(* with at least one client per op everything is released at t = 0:
   the closed loop IS the saturation probe, field for field *)
let test_closed_saturates () =
  let stream =
    Scenario.op_stream (Scenario.spec Scenario.F) ~ops:600
      ~keys:ol_svc_cfg.Service.keys ~seed:23
  in
  let probe = ol_run ~rate:0.0 stream in
  Alcotest.(check bool) "the stream reads" true (probe.Openloop.reads_sum <> 0);
  let fields (r : Openloop.report) =
    ( (r.span_ns, r.fences, r.attempts, r.rejects, r.max_backlog),
      r.latency,
      r.reads_sum )
  in
  List.iter
    (fun clients ->
      let _, svc = mk_svc ol_svc_cfg in
      let r = Openloop.run svc (closed clients) stream in
      Alcotest.(check bool)
        (Printf.sprintf "%d clients = saturation probe" clients)
        true
        (fields r = fields probe))
    [ 600; 650 ]

(* one client keeps one op outstanding: every batch seals exactly one op
   and the backlog never holds more than the op just released *)
let test_closed_one_client () =
  let ops = 200 in
  let _, svc = mk_svc ol_svc_cfg in
  let r =
    Openloop.run svc (closed 1)
      (rw_stream ~read:0.3 ~theta:0.9 ~ops ~keys:ol_svc_cfg.Service.keys
         ~seed:31)
  in
  let batches =
    List.fold_left (fun n s -> n + s.Service.s_batches) 0 r.Openloop.shards
  in
  Alcotest.(check int) "one op per batch" ops batches;
  Alcotest.(check int) "max backlog" 1 r.Openloop.max_backlog

(* ---------- data plane: scenario streams invariant across domains ---------- *)

let mk_plane ?(shards = 4) ?(keys = 128) ~domains () =
  let pm = Pmem.create ~seed:21 Config.default in
  let heap = Heap.create pm in
  let cfg =
    {
      Dataplane.shards;
      domains;
      batch_max = 4;
      depth = 16;
      keys;
      log_region_bytes = 1 lsl 16;
    }
  in
  (cfg, Dataplane.create heap cfg)

let dp_fingerprint (r : Dataplane.report) =
  ( r.Dataplane.total_ops,
    ( r.Dataplane.reads,
      r.Dataplane.writes,
      r.Dataplane.rmws,
      r.Dataplane.scans ),
    r.Dataplane.reads_sum,
    r.Dataplane.table_crc,
    r.Dataplane.fences,
    r.Dataplane.batches,
    r.Dataplane.sealed_records,
    List.map
      (fun (s : Dataplane.shard_report) ->
        (s.Dataplane.d_shard, s.Dataplane.d_ops, s.Dataplane.d_batches))
      r.Dataplane.per_shard )

let test_dataplane_scenario_invariant () =
  List.iter
    (fun mix ->
      let name = Scenario.mix_to_string mix in
      let sp = Scenario.spec ~scan_max:8 mix in
      let run domains =
        let cfg, plane = mk_plane ~domains () in
        let stream =
          Scenario.op_stream sp ~ops:500 ~keys:cfg.Dataplane.keys ~seed:13
        in
        let r = Dataplane.run plane stream in
        Alcotest.(check bool) "clean run" false r.Dataplane.halted;
        (match mix with
        | Scenario.F ->
            Alcotest.(check bool) "F exercises rmw" true (r.Dataplane.rmws > 0)
        | Scenario.E ->
            Alcotest.(check bool) "E exercises scan" true
              (r.Dataplane.scans > 0)
        | _ -> ());
        (dp_fingerprint r, plane)
      in
      let fp1, plane = run 1 in
      Alcotest.(check bool)
        (name ^ ": invariant identical 1 vs 3 domains")
        true
        (fp1 = fst (run 3));
      (* each shard runs its ops in stream order on both executors, so
         the serial driver reads the same values and leaves the same
         table as the data plane *)
      let _, _, reads_sum, _, _, _, _, _ = fp1 in
      let keys = 128 in
      let _, svc =
        mk_svc { Service.shards = 4; batch_max = 4; depth = 16; keys }
      in
      let r =
        Openloop.run svc (closed 500)
          (Scenario.op_stream sp ~ops:500 ~keys ~seed:13)
      in
      Alcotest.(check int)
        (name ^ ": serial reads_sum = data plane's")
        reads_sum r.Openloop.reads_sum;
      Alcotest.(check (array int))
        (name ^ ": serial table = data plane's")
        (Array.init keys (Dataplane.peek plane))
        (Array.init keys (Service.peek svc)))
    Scenario.all_mixes

(* ---------- recovery under load ---------- *)

let test_recovery_under_load () =
  let pm = Pmem.create ~seed:21 Config.default in
  let heap = Heap.create pm in
  let cfg =
    {
      Dataplane.shards = 3;
      domains = 3;
      batch_max = 4;
      depth = 16;
      keys = 96;
      log_region_bytes = 1 lsl 16;
    }
  in
  let stream =
    rw_stream ~read:0.3 ~theta:0.9 ~ops:600 ~keys:cfg.Dataplane.keys ~seed:17
  in
  let r =
    Openloop.recovery_under_load heap cfg stream ~fuse_batches:20
  in
  Alcotest.(check bool) "fuse blew mid-stream" true r.Openloop.rv_halted;
  Alcotest.(check int) "ack-floor audit clean" 0 r.Openloop.rv_audit_failures;
  Alcotest.(check bool) "recovery costs device time" true
    (r.Openloop.rv_recover_ns > 0.0);
  Alcotest.(check int) "backlog = unacked remainder"
    (Array.length stream - r.Openloop.rv_acked_before)
    r.Openloop.rv_backlog;
  Alcotest.(check int) "resume completes the backlog" r.Openloop.rv_backlog
    r.Openloop.rv_resumed;
  Alcotest.(check bool) "first ack observed" true
    (r.Openloop.rv_first_ack_wall_s > 0.0);
  Alcotest.(check bool) "RTO finite and ordered" true
    (r.Openloop.rv_rto_wall_s >= r.Openloop.rv_first_ack_wall_s
    && r.Openloop.rv_rto_wall_s < 60.0);
  (* rmw/scan streams cannot be audited: must be rejected loudly *)
  let bad = [| (0, Service.Rmw 1) |] in
  Alcotest.(check bool) "rmw stream raises" true
    (match Openloop.recovery_under_load heap cfg bad ~fuse_batches:1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "openloop"
    [
      ( "closed",
        [
          Alcotest.test_case "held time lands in client p99" `Quick
            test_held_time_in_p99;
          Alcotest.test_case "clients >= ops is the saturation probe" `Quick
            test_closed_saturates;
          Alcotest.test_case "one client seals one op per batch" `Quick
            test_closed_one_client;
          Alcotest.test_case "admission interleaved accounting" `Quick
            test_admission_interleaved;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "zipf sampler statistics" `Quick test_zipf_stats;
          Alcotest.test_case "mix fractions and stream shape" `Quick
            test_scenario_mixes;
          Alcotest.test_case "rmw and scan semantics" `Quick
            test_rmw_scan_semantics;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "schedules: poisson, burst, saturate" `Quick
            test_schedules;
          Alcotest.test_case "reports are deterministic" `Quick
            test_openloop_deterministic;
          Alcotest.test_case "CO-safe latency from scheduled arrival" `Quick
            test_openloop_co_latency;
          Alcotest.test_case "saturation knee: goodput pins, sheds rise" `Quick
            test_openloop_knee;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "scenario streams invariant across domains" `Quick
            test_dataplane_scenario_invariant;
          Alcotest.test_case "recovery under load: RTO + clean audit" `Quick
            test_recovery_under_load;
        ] );
    ]
