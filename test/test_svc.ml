open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_svc

(* The service-level acceptance tests of the group-commit tentpole:
   fences/write falls with the batch size, admission sheds under
   pressure, and a kill in the middle of a batch loses nothing that was
   acknowledged while exposing nothing that was not. *)

let mk_svc ?(seed = 5) ?shadow cfg =
  let pm = Pmem.create ~seed Config.small in
  let heap = Heap.create pm in
  (pm, Service.create ?shadow heap cfg)

(* a read/write stream: YCSB-A's key draw with read fraction [read] *)
let rw_stream ~read ~theta ~ops ~keys ~seed =
  Scenario.op_stream
    { (Scenario.spec ~theta Scenario.A) with read; update = 1.0 -. read }
    ~ops ~keys ~seed

let closed clients =
  { Openloop.rate = 0.0; arrivals = Openloop.Closed { clients }; seed = 0 }

(* router hash: the directed regression for the precedence bug.  The
   old code computed [k * (2654435761 land 0xFFFFFFFF lsr 13)] — [lsr]
   binds tighter than [*] — i.e. [k * 324027].  324027 = 27 * 11 * 1091,
   so for any shard count dividing it (3, 9, 11, 27, 33, ...) every key
   landed on shard 0.  This test pins the fixed operator order: at
   shards = 3 a sequential key range must populate all three shards. *)

let test_route_prefix_bug () =
  let shards = 3 in
  let counts = Array.make shards 0 in
  for k = 0 to 999 do
    let s = Service.route ~shards k in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d gets keys (%d)" s c)
        true (c > 0))
    counts;
  (* the broken hash put all 1000 keys on shard 0 *)
  Alcotest.(check bool)
    (Printf.sprintf "shard 0 is not a sink (%d/1000)" counts.(0))
    true
    (counts.(0) < 600)

(* balance: for every shard count 2..16 the Fibonacci hash must spread
   both a sequential key range and a Zipf-drawn distinct key set with
   max/min population <= 1.3.  (Op-count balance under Zipf is a
   property of the skew, not the hash — the hash's job is to not
   correlate with the key distribution's support.) *)

let check_balance name keys shards =
  let counts = Array.make shards 0 in
  List.iter
    (fun k ->
      let s = Service.route ~shards k in
      counts.(s) <- counts.(s) + 1)
    keys;
  let mx = Array.fold_left max 0 counts
  and mn = Array.fold_left min max_int counts in
  Alcotest.(check bool)
    (Printf.sprintf "%s shards=%d max/min %d/%d <= 1.3" name shards mx mn)
    true
    (mn > 0 && float_of_int mx /. float_of_int mn <= 1.3)

let test_route_balance () =
  let sequential = List.init 4096 Fun.id in
  let zipf_distinct =
    let rng = Random.State.make [| 0xBA1; 7 |] in
    let draw = Scenario.zipf_sampler ~n:4096 ~theta:0.9 rng in
    let seen = Hashtbl.create 1024 in
    for _ = 1 to 20_000 do
      Hashtbl.replace seen (draw ()) ()
    done;
    Hashtbl.fold (fun k () acc -> k :: acc) seen []
  in
  Alcotest.(check bool) "zipf draw covers enough distinct keys" true
    (List.length zipf_distinct >= 512);
  for shards = 2 to 16 do
    check_balance "sequential" sequential shards;
    check_balance "zipf-distinct" zipf_distinct shards
  done

(* admission over-ack: a double ack (or a negative one) must raise, not
   silently unbound the inflight ceiling *)

let test_admission_overack () =
  let adm = Admission.create ~depth:4 in
  (match Admission.offer adm () with
  | Admission.Accepted -> ()
  | Admission.Rejected _ -> Alcotest.fail "first offer shed");
  (match Admission.offer adm () with
  | Admission.Accepted -> ()
  | Admission.Rejected _ -> Alcotest.fail "second offer shed");
  ignore (Admission.take_up_to adm 2);
  Alcotest.check_raises "over-ack raises"
    (Invalid_argument "Admission.ack: 3 acks with 2 inflight") (fun () ->
      Admission.ack adm 3);
  Alcotest.check_raises "negative ack raises"
    (Invalid_argument "Admission.ack: -1 acks with 2 inflight") (fun () ->
      Admission.ack adm (-1));
  (* the failed acks must not have consumed anything *)
  Alcotest.(check int) "inflight intact" 2 (Admission.inflight adm);
  Admission.ack adm 2;
  Alcotest.(check int) "exact ack drains" 0 (Admission.inflight adm)

(* router + admission *)

let test_router_and_admission () =
  let _, svc = mk_svc { Service.shards = 3; batch_max = 4; depth = 2; keys = 64 } in
  for k = 0 to 63 do
    let s = Service.shard_of_key svc k in
    Alcotest.(check bool) "shard in range" true (s >= 0 && s < 3);
    Alcotest.(check int) "routing is stable" s (Service.shard_of_key svc k)
  done;
  (* overrun one shard's depth-2 admission queue *)
  let on_shard0 =
    List.filter (fun k -> Service.shard_of_key svc k = 0)
      (List.init 64 Fun.id)
  in
  Alcotest.(check bool) "enough keys on shard 0" true
    (List.length on_shard0 >= 5);
  let verdicts =
    List.map
      (fun k -> Service.submit svc ~client:0 ~key:k (Service.Write k))
      on_shard0
  in
  let accepted, shed =
    List.partition (function Admission.Accepted -> true | _ -> false) verdicts
  in
  Alcotest.(check int) "depth bounds inflight" 2 (List.length accepted);
  Alcotest.(check int) "the rest are shed" (List.length on_shard0 - 2)
    (List.length shed);
  Alcotest.(check int) "sheds counted" (List.length shed)
    (List.init 3 (fun i -> (Service.shard_stats svc i).Service.s_rejected)
    |> List.fold_left ( + ) 0);
  (* a drain frees the slots: the shed keys go through on retry *)
  let done1 = Service.drain svc in
  Alcotest.(check int) "accepted ops complete" 2 (List.length done1);
  List.iter
    (fun (v : Admission.verdict) ->
      match v with
      | Admission.Rejected { queued } ->
          Alcotest.failf "retry after drain still shed (queued %d)" queued
      | Admission.Accepted -> ())
    (List.filteri (fun i _ -> i < 2)
       (List.map
          (fun k -> Service.submit svc ~client:0 ~key:k (Service.Write k))
          (List.filteri (fun i _ -> i >= 2) on_shard0)))

(* fences/write falls monotonically with batch_max (toward 1/K) *)

let test_fences_per_write_monotone () =
  let fences_at batch_max =
    let _, svc =
      mk_svc ~seed:7
        { Service.shards = 2; batch_max; depth = 32; keys = 256 }
    in
    let r =
      Openloop.run svc (closed 16)
        (rw_stream ~read:0.0 ~theta:0.0 ~ops:400 ~keys:256 ~seed:11)
    in
    Alcotest.(check int) "all ops completed" 400 r.Openloop.ops;
    float_of_int r.Openloop.fences /. float_of_int r.Openloop.writes
  in
  let f1 = fences_at 1 and f4 = fences_at 4 and f8 = fences_at 8 in
  Alcotest.(check bool)
    (Printf.sprintf "batch 4 beats batch 1 (%.3f < %.3f)" f4 f1)
    true (f4 < f1);
  Alcotest.(check bool)
    (Printf.sprintf "batch 8 beats batch 4 (%.3f < %.3f)" f8 f4)
    true (f8 < f4);
  Alcotest.(check bool)
    (Printf.sprintf "batch 8 amortises below 1/2 (%.3f)" f8)
    true (f8 < 0.5)

(* mid-batch kill: acknowledged writes survive any crash, unacknowledged
   ones stay invisible (except a sealed prefix of the one batch whose
   fence was in flight).  A dry run sizes the drain's event window, then
   the same deterministic workload is killed at a spread of crash points
   under both drain-everything and drain-nothing persist choices. *)

(* The sweep runs at shards = 2 and — post hash fix — at shards = 3,
   the smallest count the broken router collapsed to a single shard. *)
let kill_cfg shards = { Service.shards; batch_max = 3; depth = 32; keys = 32 }

let kill_ops =
  (* 24 writes, keys repeat so later batches overwrite earlier ones *)
  List.init 24 (fun i -> (i * 5 mod 32, 1000 + i))

let run_kill ~cfg:kill_cfg ~fuse ~persist =
  let pm, svc = mk_svc ~seed:5 kill_cfg in
  let acked = Array.make kill_cfg.Service.keys 0 in
  let pending = Array.make kill_cfg.Service.keys [] in
  List.iter
    (fun (k, v) ->
      pending.(k) <- pending.(k) @ [ v ];
      match Service.submit svc ~client:0 ~key:k (Service.Write v) with
      | Admission.Accepted -> ()
      | Admission.Rejected _ -> Alcotest.fail "kill workload must fit depth")
    kill_ops;
  let on_ack (c : Service.completion) =
    match c.Service.c_op with
    | Service.Write v ->
        acked.(c.Service.c_key) <- v;
        pending.(c.Service.c_key) <-
          List.filter (fun v' -> v' <> v) pending.(c.Service.c_key)
    | Service.Read | Service.Rmw _ | Service.Scan _ -> ()
  in
  (match fuse with
  | Some f ->
      Pmem.set_fuse pm (Some f);
      (try ignore (Service.drain ~on_ack svc) with Pmem.Crash -> ())
  | None -> ignore (Service.drain ~on_ack svc));
  let sealing =
    Array.init kill_cfg.Service.shards (Service.sealing svc)
  in
  Pmem.crash_with pm ~persist:(fun _ -> persist);
  Service.recover svc;
  (* audit: every key shows its last acknowledged value, or — only on a
     shard whose seal was in flight — a submitted-but-unacked value
     (the durable prefix of the interrupted batch) *)
  for k = 0 to kill_cfg.Service.keys - 1 do
    let got = Service.peek svc k in
    let sealing_shard = sealing.(Service.shard_of_key svc k) in
    let ok =
      got = acked.(k) || (sealing_shard && List.mem got pending.(k))
    in
    if not ok then
      Alcotest.failf
        "fuse %s persist %b key %d: got %d, acked %d, pending %a (sealing %b)"
        (match fuse with Some f -> string_of_int f | None -> "-")
        persist k got acked.(k)
        Fmt.(Dump.list int)
        pending.(k) sealing_shard
  done;
  (* the recovered service keeps serving *)
  (match Service.submit svc ~client:9 ~key:0 (Service.Write 777_777) with
  | Admission.Accepted -> ()
  | Admission.Rejected _ -> Alcotest.fail "post-recovery submit shed");
  ignore (Service.drain svc);
  Alcotest.(check int) "post-recovery write lands" 777_777
    (Service.peek svc 0)

let test_mid_batch_kill shards () =
  let cfg = kill_cfg shards in
  (* dry run: count the drain's fuse-visible events *)
  let drain_events =
    let pm, svc = mk_svc ~seed:5 cfg in
    List.iter
      (fun (k, v) ->
        ignore (Service.submit svc ~client:0 ~key:k (Service.Write v)))
      kill_ops;
    let e0 = Pmem.events pm in
    ignore (Service.drain svc);
    Pmem.events pm - e0
  in
  Alcotest.(check bool) "drain does work" true (drain_events > 0);
  (* no-crash control: every write acknowledged and visible *)
  run_kill ~cfg ~fuse:None ~persist:true;
  let stride = max 1 (drain_events / 40) in
  let fuse = ref 1 in
  while !fuse <= drain_events do
    run_kill ~cfg ~fuse:(Some !fuse) ~persist:true;
    run_kill ~cfg ~fuse:(Some !fuse) ~persist:false;
    fuse := !fuse + stride
  done

(* odd shard counts get real load: a Zipf closed-loop run at shards = 3
   must complete every op and give every shard a non-trivial share —
   with the broken hash shards 1 and 2 sat idle. *)

let test_odd_shard_coverage () =
  let _, svc =
    mk_svc ~seed:9 { Service.shards = 3; batch_max = 4; depth = 48; keys = 96 }
  in
  let r =
    Openloop.run svc (closed 24)
      (rw_stream ~read:0.3 ~theta:0.9 ~ops:600 ~keys:96 ~seed:13)
  in
  Alcotest.(check int) "all ops completed" 600 r.Openloop.ops;
  Alcotest.(check int) "three shard reports" 3 (List.length r.Openloop.shards);
  List.iter
    (fun (s : Service.shard_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d serves ops (%d)" s.s_id s.s_ops)
        true
        (s.s_ops >= 600 / 10);
      Alcotest.(check bool)
        (Printf.sprintf "shard %d seals batches" s.s_id)
        true
        (s.s_batches > 0))
    r.Openloop.shards

(* ---------- SPSC handoff ring ---------- *)

(* the cursors are monotonically increasing ints masked into the slot
   array; run them many times around the ring across two domains and
   check that nothing is lost, duplicated or reordered *)
let test_spsc_wraparound () =
  let ring = Spsc.create ~dummy:(-1) ~capacity:6 in
  Alcotest.(check int) "capacity rounds up to a power of two" 8
    (Spsc.capacity ring);
  let n = (4 * Spsc.capacity ring) + 5 in
  let producer =
    Domain.spawn (fun () ->
        for v = 0 to n - 1 do
          while not (Spsc.try_push ring v) do
            Domain.cpu_relax ()
          done
        done)
  in
  let rec pop () =
    match Spsc.try_pop ring with
    | Some v -> v
    | None ->
        Domain.cpu_relax ();
        pop ()
  in
  for expect = 0 to n - 1 do
    let got = pop () in
    if got <> expect then
      Alcotest.failf "element %d arrived as %d" expect got
  done;
  Domain.join producer;
  Alcotest.(check int) "empty after drain" 0 (Spsc.length ring);
  (* [length] is exact within the owning domains, wraps included *)
  for v = 0 to 2 do
    Alcotest.(check bool) "push accepted" true (Spsc.try_push ring v)
  done;
  Alcotest.(check int) "length 3" 3 (Spsc.length ring);
  ignore (Spsc.try_pop ring);
  Alcotest.(check int) "length 2" 2 (Spsc.length ring)

(* ---------- allocation budget ---------- *)

(* the constant-cost tentpole in one number: steady-state committed
   writes on the serial service path must stay under a small minor-heap
   budget per op.  Measured at ~53 words/op (completion records,
   latency observations and admission queueing legitimately allocate;
   backends build their ctx once, not per transaction; the device
   clocks are unboxed; the write set returns a position, not a tuple);
   the budget adds ~20% headroom but fails loudly if per-transaction
   closures, option boxing, boxed floats or hashtable churn creep back
   into the write path. *)
let test_alloc_budget_per_write () =
  let _, svc =
    mk_svc { Service.shards = 1; batch_max = 8; depth = 128; keys = 64 }
  in
  let round base =
    for i = 0 to 63 do
      match
        Service.submit svc ~client:0 ~key:(i mod 64)
          (Service.Write (base + i))
      with
      | Admission.Accepted -> ()
      | Admission.Rejected _ -> Alcotest.fail "unexpected shed"
    done;
    ignore (Service.drain svc)
  in
  (* warm-up: let the flat buffers (write set, span arrays, WPQ ring)
     reach steady-state capacity *)
  for r = 1 to 10 do
    round (r * 1000)
  done;
  let w0 = Gc.minor_words () in
  let rounds = 20 in
  for r = 1 to rounds do
    round (100_000 + (r * 1000))
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int (rounds * 64) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per committed write <= 64" per_op)
    true (per_op <= 64.0)

(* An accepted submit allocates its request record (5 words) and its
   admission queue cell (3 words), and nothing for the clock it stamps:
   [Pmem.stats] stores the device clock into [Stats.t] (one boxed float)
   only when it moved since the last read, and a submit does no device
   work, so a run of submits reads one unchanged clock.  Over 10,000
   submits after a drain, only the first read after that drain's device
   work boxes; a box per submit would add 2 words each. *)
let test_alloc_budget_submit () =
  let submits = 10_000 in
  let _, svc =
    mk_svc { Service.shards = 1; batch_max = 8; depth = submits; keys = 64 }
  in
  (* built before the measured loop: a [Write i] per submit is 2 words
     of the caller's *)
  let ops = Array.init 64 (fun i -> Service.Write i) in
  let submit i =
    match Service.submit svc ~client:0 ~key:(i mod 64) ops.(i mod 64) with
    | Admission.Accepted -> ()
    | Admission.Rejected _ -> Alcotest.fail "unexpected shed"
  in
  for i = 1 to 64 do
    submit i
  done;
  ignore (Service.drain svc);
  let w0 = Gc.minor_words () in
  for i = 1 to submits do
    submit i
  done;
  let per_submit = (Gc.minor_words () -. w0) /. float_of_int submits in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per accepted submit <= 8.1" per_submit)
    true (per_submit <= 8.1)

(* The index side of the same budget: one insert per SpecSPMT
   transaction into an order-8 mirrored tree, 10,000 random keys after a
   10,000-key warm-up.  The mirror is updated in place under a reused
   undo log, so an insert allocates no node copies: ~51 words
   measured, against ~433 when every first write to a node copied it
   and ~96 when each of its ~15 writes returned a tuple from the write
   set. *)
let test_alloc_budget_mirrored_insert () =
  let open Specpmt_txn in
  let open Specpmt_pstruct in
  let pm = Pmem.create ~seed:5 Config.default in
  let heap = Heap.create pm in
  let b =
    Specpmt_backends.Registry.create heap Specpmt_backends.Registry.Spec
  in
  let t = b.Ctx.run_tx (fun ctx -> Pbtree.create ~order:8 ctx ()) in
  Pbtree.attach_shadow (Ctx.peek_ctx pm) t;
  let rng = Random.State.make [| 11 |] in
  let inserts n =
    for _ = 1 to n do
      let k = 1 + Random.State.int rng 1_000_000_000 in
      b.Ctx.run_tx (fun ctx -> Pbtree.insert ctx t k k)
    done
  in
  inserts 10_000;
  let w0 = Gc.minor_words () in
  inserts 10_000;
  let per_insert = (Gc.minor_words () -. w0) /. 10_000.0 in
  Pbtree.verify_shadow (Ctx.peek_ctx pm) t;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per mirrored insert <= 80" per_insert)
    true (per_insert <= 80.0)

(* ---------- descent-read budget (shadow mirror) ---------- *)

(* The read-side companion of the minor-words budget above: with the
   DRAM mirror on, a tree descent costs no device loads at all, so a
   Scan's loads are essentially its metered cell reads, and a len-1
   scan (the point-lookup shape) stays under a flat handful.  Asserted
   against the device counter AND the shadow counters, so a silent
   mirror regression (detached, stale, or bypassed — every fetch a
   miss) fails here and in CI before any perf number moves. *)
let scan_loads_probe ~shadow ~len ~rounds =
  let pm, svc =
    mk_svc ~shadow { Service.shards = 1; batch_max = 8; depth = 64; keys = 256 }
  in
  let chunk lo =
    for k = lo to lo + 63 do
      match Service.submit svc ~client:0 ~key:k (Service.Write (k * 3)) with
      | Admission.Accepted -> ()
      | Admission.Rejected _ -> Alcotest.fail "unexpected shed"
    done;
    ignore (Service.drain svc)
  in
  chunk 0;
  chunk 64;
  chunk 128;
  chunk 192;
  let l0 = (Pmem.stats pm).Stats.loads in
  for r = 0 to rounds - 1 do
    (match
       Service.submit svc ~client:0 ~key:(r * 37 mod 256) (Service.Scan len)
     with
    | Admission.Accepted -> ()
    | Admission.Rejected _ -> Alcotest.fail "unexpected shed");
    if r mod 32 = 31 then ignore (Service.drain svc)
  done;
  ignore (Service.drain svc);
  let loads = (Pmem.stats pm).Stats.loads - l0 in
  (float_of_int loads /. float_of_int rounds, svc)

let test_descent_read_budget () =
  let per_on, svc = scan_loads_probe ~shadow:true ~len:16 ~rounds:64 in
  let per_off, _ = scan_loads_probe ~shadow:false ~len:16 ~rounds:64 in
  Alcotest.(check bool)
    (Printf.sprintf "len-16 scan: %.1f device loads/op (mirror) <= 24" per_on)
    true (per_on <= 24.0);
  Alcotest.(check bool)
    (Printf.sprintf "mirror saves descent loads (%.1f < %.1f)" per_on per_off)
    true (per_on < per_off);
  match
    Specpmt_pstruct.Pbtree.shadow (Oindex.tree (Service.oindex svc) 0)
  with
  | None -> Alcotest.fail "shard 0 has no mirror"
  | Some sh ->
      let hits, misses, _ = Specpmt_pstruct.Shadow.totals sh in
      Alcotest.(check int) "no mirror misses" 0 misses;
      Alcotest.(check bool) "mirror served descents" true (hits > 0)

let test_point_lookup_budget () =
  let per_on, _ = scan_loads_probe ~shadow:true ~len:1 ~rounds:64 in
  Alcotest.(check bool)
    (Printf.sprintf "len-1 scan: %.1f device loads/op (mirror) <= 4" per_on)
    true (per_on <= 4.0)

(* ---------- shard-per-domain data plane ---------- *)

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

let dp_stream ?(read_frac = 0.3) ?(ops = 800) cfg =
  rw_stream ~read:read_frac ~theta:0.9 ~ops ~keys:cfg.Dataplane.keys ~seed:17

(* the invariant half of a report must not depend on the domain count;
   4 shards on 3 domains is the deliberately lopsided placement *)

let invariant_fingerprint (r : Dataplane.report) =
  ( r.Dataplane.total_ops,
    r.Dataplane.reads,
    r.Dataplane.writes,
    r.Dataplane.reads_sum,
    r.Dataplane.table_crc,
    r.Dataplane.fences,
    r.Dataplane.batches,
    r.Dataplane.sealed_records,
    List.map
      (fun (s : Dataplane.shard_report) ->
        (s.Dataplane.d_shard, s.Dataplane.d_ops, s.Dataplane.d_batches,
         s.Dataplane.d_sealed))
      r.Dataplane.per_shard )

let test_dataplane_invariant_across_domains () =
  let run domains =
    let cfg, plane = mk_plane ~domains () in
    let r = Dataplane.run plane (dp_stream cfg) in
    Alcotest.(check bool) "clean run" false r.Dataplane.halted;
    invariant_fingerprint r
  in
  let fp1 = run 1 in
  Alcotest.(check bool) "1 vs 3 domains: invariant identical" true
    (fp1 = run 3);
  Alcotest.(check bool) "1 vs 4 domains: invariant identical" true
    (fp1 = run 4)

(* crash drill at shards = 3: halt mid-stream, discard every domain
   cache, recover through the parent — every acked write must still be
   visible, and any other visible value must come from a submitted
   write no older than the last acked one for that key *)

let test_dataplane_crash_audit () =
  let cfg, plane = mk_plane ~shards:3 ~keys:96 ~domains:3 () in
  let stream = dp_stream ~read_frac:0.2 ~ops:600 cfg in
  let keys = cfg.Dataplane.keys in
  let initial = Array.init keys (Dataplane.peek plane) in
  let last_acked = Array.make keys None in
  let last_acked_idx = Array.make keys (-1) in
  let on_ack ~idx ~value:_ =
    match stream.(idx) with
    | k, Service.Write v ->
        last_acked.(k) <- Some v;
        last_acked_idx.(k) <- idx
    | _, (Service.Read | Service.Rmw _ | Service.Scan _) -> ()
  in
  let r = Dataplane.run ~halt_after_batches:40 ~on_ack plane stream in
  Alcotest.(check bool) "run halted" true r.Dataplane.halted;
  Alcotest.(check bool) "some ops acked before the halt" true
    (r.Dataplane.total_ops > 0);
  Dataplane.crash plane;
  Dataplane.recover plane;
  for k = 0 to keys - 1 do
    let got = Dataplane.peek plane k in
    let ok =
      match last_acked.(k) with
      | Some v when got = v -> true
      | latest ->
          (* untouched, or a sealed-but-unacked later write *)
          (latest = None && got = initial.(k))
          || Array.exists
               (fun idx ->
                 idx > last_acked_idx.(k)
                 &&
                 match stream.(idx) with
                 | k', Service.Write v' -> k' = k && v' = got
                 | _ -> false)
               (Array.init (Array.length stream) Fun.id)
    in
    if not ok then
      Alcotest.failf "key %d: got %d, last acked %s" k got
        (match last_acked.(k) with
        | Some v -> string_of_int v
        | None -> "-")
  done;
  (* the recovered plane serves again *)
  let r2 = Dataplane.run plane (dp_stream ~ops:200 cfg) in
  Alcotest.(check bool) "post-recovery run clean" false r2.Dataplane.halted;
  Alcotest.(check int) "post-recovery ops served" 200 r2.Dataplane.total_ops

(* the scaling claim, on the deterministic modelled clock: spreading 4
   shards over 4 domains must at least halve the makespan of the
   write-heavy mix relative to 1 domain (measured wall clock is
   host-dependent and not asserted) *)

let test_dataplane_modelled_speedup () =
  let run domains =
    let cfg, plane = mk_plane ~domains () in
    let r = Dataplane.run plane (dp_stream ~read_frac:0.1 ~ops:1200 cfg) in
    r.Dataplane.sim_ns_max
  in
  let ns1 = run 1 and ns4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4-domain modelled makespan >= 2x better (%.2fx)"
       (ns1 /. ns4))
    true
    (ns1 >= 2.0 *. ns4)

(* ---------- the per-shard core ---------- *)

(* [Shards] driven directly, without an executor around it: its rows,
   the transaction body against a DRAM model, the op tally, and the
   recovery sequence.  Both executors run exactly this code. *)

let test_shards_rows () =
  let keys = 1000 in
  List.iter
    (fun shards ->
      let rows = Shards.rows ~shards ~keys in
      Alcotest.(check int) "one row per shard" shards (Array.length rows);
      let seen = Array.make keys 0 in
      Array.iteri
        (fun s row ->
          Array.iteri
            (fun i k ->
              seen.(k) <- seen.(k) + 1;
              if Shards.route ~shards k <> s then
                Alcotest.failf "shards=%d: key %d in row %d routes to %d"
                  shards k s (Shards.route ~shards k);
              if i > 0 && row.(i - 1) >= k then
                Alcotest.failf "shards=%d: row %d not ascending at %d" shards
                  s i)
            row)
        rows;
      Array.iteri
        (fun k n ->
          if n <> 1 then
            Alcotest.failf "shards=%d: key %d in %d rows" shards k n)
        seen)
    [ 1; 2; 3; 7; Specpmt_backends.Spec_mt.max_threads ];
  let rejects name f =
    match f () with
    | (_ : int array array) -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "0 shards" (fun () -> Shards.rows ~shards:0 ~keys:8);
  rejects "too many shards" (fun () ->
      Shards.rows ~shards:(Specpmt_backends.Spec_mt.max_threads + 1) ~keys:8);
  rejects "0 keys" (fun () -> Shards.rows ~shards:2 ~keys:0)

let core_shards = 3
let core_keys = 48

(* the layout [Service.create] uses: one pool on the shared heap, then
   one flat table *)
let mk_core () =
  let pm = Pmem.create ~seed:3 Config.small in
  let heap = Heap.create pm in
  let pool = Specpmt_backends.Spec_mt.create heap ~threads:core_shards in
  let base = Heap.alloc heap (core_keys * 8) in
  let cells = Array.init core_keys (fun k -> base + (k * 8)) in
  let rows = Shards.rows ~shards:core_shards ~keys:core_keys in
  (pm, Shards.create ~shadow:true heap ~pool ~rows ~cells)

(* the model: cell values and which keys a client write populated *)
type model = { vals : int array; written : bool array }

let model_exec m ~key op =
  match (op : Shards.op) with
  | Shards.Read -> m.vals.(key)
  | Shards.Write v ->
      m.vals.(key) <- v;
      m.written.(key) <- true;
      v
  | Shards.Rmw d ->
      m.vals.(key) <- m.vals.(key) + d;
      m.written.(key) <- true;
      m.vals.(key)
  | Shards.Scan len ->
      let s = Shards.route ~shards:core_shards key in
      let acc = ref 0 and n = ref 0 in
      for k = key to core_keys - 1 do
        if m.written.(k) && !n < len && Shards.route ~shards:core_shards k = s
        then (
          acc := ((!acc * 31) + k + m.vals.(k)) land max_int;
          incr n)
      done;
      !acc

let core_ops =
  let rng = Random.State.make [| 0x5A4D; 17 |] in
  List.init 400 (fun i ->
      let key = Random.State.int rng core_keys in
      let op =
        match Random.State.int rng 4 with
        | 0 -> Shards.Read
        | 1 -> Shards.Write (i + 1)
        | 2 -> Shards.Rmw (Random.State.int rng 9 + 1)
        | _ -> Shards.Scan (Random.State.int rng 6 + 1)
      in
      (key, op))

(* one op through the core on shard [s], checked against the model run
   right after it, so both see the same order *)
let core_exec core m s (key, op) =
  let got = Shards.exec core s ~key op in
  let want = model_exec m ~key op in
  if got <> want then
    Alcotest.failf "shard %d key %d: got %d, model %d" s key got want;
  got

(* Each shard serves its own ops in stream order, in sealed batches of
   up to 4.  Returns every op with its result. *)
let run_core_ops core m ops =
  let per_shard = Array.make core_shards [] in
  List.iter
    (fun ((key, _) as r) ->
      let s = Shards.route ~shards:core_shards key in
      per_shard.(s) <- r :: per_shard.(s))
    (List.rev ops);
  let results = ref [] in
  Array.iteri
    (fun s ops ->
      let rec batches = function
        | [] -> ()
        | ops ->
            let n = min 4 (List.length ops) in
            Shards.batch_begin core s;
            List.iter
              (fun ((_, op) as r) ->
                results := (op, core_exec core m s r) :: !results)
              (List.filteri (fun i _ -> i < n) ops);
            Shards.batch_end core s ~n;
            batches (List.filteri (fun i _ -> i >= n) ops)
      in
      batches ops)
    per_shard;
  List.rev !results

let fresh_model () =
  { vals = Array.make core_keys 0; written = Array.make core_keys false }

(* adoption leaves every cell 0 and the index empty; then every op's
   result matches the model, and the tally counts each kind once and
   sums the same [reads_sum] whatever order the acks arrive in *)
let test_shards_exec_and_tally () =
  let pm, core = mk_core () in
  Alcotest.(check int) "adoption populates no key" 0
    (Oindex.populated_count (Shards.index core));
  for k = 0 to core_keys - 1 do
    Alcotest.(check int) "adopted cell" 0
      (Pmem.peek_volatile_int pm (Shards.cell core k))
  done;
  let m = fresh_model () in
  let results = run_core_ops core m core_ops in
  Alcotest.(check int) "every op served" (List.length core_ops)
    (List.length results);
  let tally_of rs =
    let t = Shards.tally () in
    List.iter (fun (op, v) -> Shards.count t op v) rs;
    t
  in
  let t = tally_of results in
  let kind p = List.length (List.filter (fun (_, op) -> p op) core_ops) in
  Alcotest.(check int) "reads" (kind (( = ) Shards.Read)) t.Shards.reads;
  Alcotest.(check int) "writes"
    (kind (function Shards.Write _ -> true | _ -> false))
    t.Shards.writes;
  Alcotest.(check int) "rmws"
    (kind (function Shards.Rmw _ -> true | _ -> false))
    t.Shards.rmws;
  Alcotest.(check int) "scans"
    (kind (function Shards.Scan _ -> true | _ -> false))
    t.Shards.scans;
  let sum =
    List.fold_left
      (fun acc (op, v) ->
        match op with
        | Shards.Write _ -> acc
        | Shards.Read | Shards.Rmw _ | Shards.Scan _ -> (acc + v) land max_int)
      0 results
  in
  Alcotest.(check int) "reads_sum" sum t.Shards.reads_sum;
  Alcotest.(check bool) "some scan saw a window" true
    (List.exists
       (function Shards.Scan _, v -> v <> 0 | _ -> false)
       results);
  Alcotest.(check bool) "tally is order-free" true
    (tally_of (List.rev results) = t)

(* recover: committed cells survive a crash that drops the whole cache,
   the index is rebuilt (a new one, with every written key), and the
   transaction body reads the new index: scans and writes after
   recovery still match the model *)
let test_shards_recover () =
  let pm, core = mk_core () in
  let m = fresh_model () in
  ignore (run_core_ops core m core_ops);
  let before = Shards.index core in
  Pmem.crash_with pm ~persist:(fun _ -> false);
  Shards.recover core;
  Alcotest.(check bool) "recover replaces the index" true
    (Shards.index core != before);
  Alcotest.(check int) "written keys indexed"
    (Array.fold_left (fun n w -> if w then n + 1 else n) 0 m.written)
    (Oindex.populated_count (Shards.index core));
  for k = 0 to core_keys - 1 do
    Alcotest.(check int)
      (Printf.sprintf "key %d durable" k)
      m.vals.(k)
      (Pmem.peek_volatile_int pm (Shards.cell core k))
  done;
  for s = 0 to core_shards - 1 do
    let row = Shards.row core s in
    let first = row.(0) and last = row.(Array.length row - 1) in
    Shards.batch_begin core s;
    List.iter
      (fun r -> ignore (core_exec core m s r))
      [
        (first, Shards.Scan core_keys);
        (last, Shards.Write 4242);
        (last, Shards.Read);
        (first, Shards.Scan core_keys);
      ];
    Shards.batch_end core s ~n:4
  done;
  Alcotest.(check bool) "post-recovery scans see keys" true
    (Oindex.populated_count (Shards.index core) > 0)

(* a service the device cannot hold fails at construction with
   [Too_large], under both executors *)
let test_shards_too_large () =
  let keys = 200_000 (* a 1.6 MB table on the 1 MiB test device *) in
  let heap () = Heap.create (Pmem.create ~seed:1 Config.small) in
  Alcotest.check_raises "service" Shards.Too_large (fun () ->
      ignore
        (Service.create (heap ())
           { Service.shards = 2; batch_max = 4; depth = 8; keys }));
  Alcotest.check_raises "data plane" Shards.Too_large (fun () ->
      ignore
        (Dataplane.create (heap ())
           {
             Dataplane.shards = 2;
             domains = 1;
             batch_max = 4;
             depth = 8;
             keys;
             log_region_bytes = 1 lsl 16;
           }))

let () =
  Alcotest.run "svc"
    [
      ( "router",
        [
          Alcotest.test_case "hash precedence bug: shards=3 not a sink" `Quick
            test_route_prefix_bug;
          Alcotest.test_case "balance <= 1.3 for shards 2..16" `Quick
            test_route_balance;
        ] );
      ( "service",
        [
          Alcotest.test_case "router + admission backpressure" `Quick
            test_router_and_admission;
          Alcotest.test_case "admission over-ack raises" `Quick
            test_admission_overack;
          Alcotest.test_case "fences/write falls with batch size" `Quick
            test_fences_per_write_monotone;
          Alcotest.test_case "odd shard count carries real load" `Quick
            test_odd_shard_coverage;
          Alcotest.test_case "mid-batch kill: acked durable, unacked invisible"
            `Slow (test_mid_batch_kill 2);
          Alcotest.test_case "mid-batch kill at shards=3" `Slow
            (test_mid_batch_kill 3);
        ] );
      ( "spsc",
        [
          Alcotest.test_case "wraparound past the capacity mask" `Quick
            test_spsc_wraparound;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "minor words per committed write" `Quick
            test_alloc_budget_per_write;
          Alcotest.test_case "minor words per mirrored index insert" `Quick
            test_alloc_budget_mirrored_insert;
          Alcotest.test_case "minor words per accepted submit" `Quick
            test_alloc_budget_submit;
        ] );
      ( "reads",
        [
          Alcotest.test_case "device loads per scan under the mirror" `Quick
            test_descent_read_budget;
          Alcotest.test_case "device loads per point lookup" `Quick
            test_point_lookup_budget;
        ] );
      ( "shards",
        [
          Alcotest.test_case "rows partition the keys by route, ascending"
            `Quick test_shards_rows;
          Alcotest.test_case "exec matches the model; tally is order-free"
            `Quick test_shards_exec_and_tally;
          Alcotest.test_case "recover: durable cells, rebuilt index" `Quick
            test_shards_recover;
          Alcotest.test_case "oversized service raises Too_large" `Quick
            test_shards_too_large;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "invariant report identical across domains"
            `Quick test_dataplane_invariant_across_domains;
          Alcotest.test_case "crash drill: acked writes durable" `Quick
            test_dataplane_crash_audit;
          Alcotest.test_case "modelled makespan >= 2x at 4 domains" `Quick
            test_dataplane_modelled_speedup;
        ] );
    ]
