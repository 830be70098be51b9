open Specpmt_pmem
module Hist = Specpmt_obs.Hist
module Json = Specpmt_obs.Json
module Sections = Specpmt_obs.Sections

(* The one load driver.  Every op of a stream is released at some
   virtual time and measured from that release to its ack; only the
   arrival process picking the release times differs.  Open loop
   (Poisson, Burst): ops arrive on a precomputed schedule whether or not
   the service has kept up, which is what exposes queueing collapse — a
   closed loop slows its own offered load down the moment the service
   saturates.  Closed loop: each ack releases the next op of the stream.

   Determinism: the schedule is a seeded pure function (closed: of the
   acks), and the "clock" the driver runs on is the DEVICE's simulated
   ns plus an idle-jump offset.  Serving ops advances device time;
   waiting for the next arrival advances only the offset.  Nothing reads
   the host clock, so a run's report is a pure function of (stream,
   config, service config) — byte-identical across --jobs and host load.

   Coordinated omission: latency is measured from each op's SCHEDULED
   arrival to its ack.  An op that sits in the backlog because
   admission shed it (or because its shard was busy) keeps accruing
   latency the whole time — the histogram charges overload to the ops
   that suffered it, instead of silently re-timing them from their
   eventually-successful submit. *)

type arrivals =
  | Poisson
  | Burst of { on_ns : float; off_ns : float }
  | Closed of { clients : int }

type config = {
  rate : float;
  arrivals : arrivals;
  seed : int;
}

let arrivals_to_string = function
  | Poisson -> "poisson"
  | Burst { on_ns; off_ns } ->
      Printf.sprintf "burst:%g:%g" (on_ns /. 1e6) (off_ns /. 1e6)
  | Closed { clients } -> Printf.sprintf "closed:%d" clients

let arrivals_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "poisson" -> Ok Poisson
  | "burst" -> Ok (Burst { on_ns = 200_000.0; off_ns = 200_000.0 })
  | _ when String.length s > 6 && String.sub s 0 6 = "burst:" -> (
      match String.split_on_char ':' s with
      | [ _; on_ms; off_ms ] -> (
          match (float_of_string_opt on_ms, float_of_string_opt off_ms) with
          | Some on, Some off when on > 0.0 && off >= 0.0 ->
              Ok (Burst { on_ns = on *. 1e6; off_ns = off *. 1e6 })
          | _ -> Error "burst windows must be positive (ms)")
      | _ -> Error "want burst:ON_MS:OFF_MS")
  | _ ->
      Error
        (Printf.sprintf "unknown arrival process %S (want poisson|burst[:ON_MS:OFF_MS])" s)

let schedule cfg ~n =
  if n < 0 then invalid_arg "Openloop.schedule: n < 0";
  let burst =
    match cfg.arrivals with
    | Poisson -> None
    | Burst { on_ns; off_ns } -> Some (on_ns, off_ns)
    | Closed _ -> invalid_arg "Openloop.schedule: closed arrivals are acks"
  in
  (* rate <= 0: the saturation probe — everything is due at t = 0 *)
  let out = Array.make (max n 1) 0.0 in
  if cfg.rate > 0.0 then begin
    let st = Random.State.make [| 0x09E7; cfg.seed |] in
    let mean_gap, shift =
      match burst with
      | None -> (1e9 /. cfg.rate, fun t -> t)
      | Some (on_ns, off_ns) ->
          let cycle = on_ns +. off_ns in
          (* arrivals land only inside ON windows, intensified so the
             long-run mean offered rate stays [rate] *)
          ( 1e9 /. cfg.rate *. (on_ns /. cycle),
            fun t ->
              let pos = Float.rem t cycle in
              if pos < on_ns then t else t -. pos +. cycle )
    in
    let t = ref 0.0 in
    for i = 0 to n - 1 do
      let u = Random.State.float st 1.0 in
      (* exponential inter-arrival; 1 - u is in (0, 1], so the log is
         finite and the gap non-negative *)
      t := shift (!t +. (-.mean_gap *. log (1.0 -. u)));
      out.(i) <- !t
    done
  end;
  Array.sub out 0 n

type report = {
  o_config : config;
  svc_config : Service.config;
  ops : int;
  reads : int;
  writes : int;
  rmws : int;
  scans : int;
  reads_sum : int;
  attempts : int;
  rejects : int;
  max_backlog : int;
  last_arrival_ns : float;
  span_ns : float;
  offered_ops_per_sec : float;
  goodput_ops_per_sec : float;
  fences : int;
  fences_per_op : float;
  latency : Hist.snapshot;
  shards : Service.shard_stats list;
}

let run svc cfg stream =
  let n = Array.length stream in
  if n = 0 then invalid_arg "Openloop.run: empty stream";
  let scfg = Service.config svc in
  let pm = Service.pm svc in
  (* [sched.(i)]: op i's release time.  A closed loop releases its
     first [clients] ops at t = 0 and the k-th ack releases op
     [clients + k - 1] (infinity until then); an open loop is the closed
     loop with a client per op, so the release in [on_ack] never fires *)
  let clients, sched =
    match cfg.arrivals with
    | Closed { clients } ->
        if clients < 1 then invalid_arg "Openloop.run: clients < 1";
        (clients, Array.init n (fun i -> if i < clients then 0.0 else infinity))
    | Poisson | Burst _ -> (n, schedule cfg ~n)
  in
  let released = ref clients in
  let dev () = (Pmem.stats pm).Stats.ns in
  (* virtual clock = device ns + idle-jump offset: jumping to the next
     arrival when nothing is runnable costs no device time, and the
     offset is constant inside a drain, so ack timestamps translate
     into virtual time with the offset current at observe time *)
  let voff = ref (0.0 -. dev ()) in
  let vnow () = dev () +. !voff in
  let backlog = Array.init scfg.Service.shards (fun _ -> Queue.create ()) in
  let backlog_len = ref 0 and max_backlog = ref 0 in
  let next = ref 0 in
  let completed = ref 0 in
  let tally = Shards.tally () in
  let attempts = ref 0 and rejects = ref 0 in
  let lat = Hist.create () in
  let before = Stats.copy (Pmem.stats pm) in
  let on_ack (c : Service.completion) =
    incr completed;
    Shards.count tally c.Service.c_op c.Service.value;
    (* [c_client] carries the stream index; latency runs from the op's
       scheduled arrival, not from when admission finally took it *)
    let l = c.Service.ack_ns +. !voff -. sched.(c.Service.c_client) in
    let l = int_of_float l in
    Hist.observe lat l;
    if !released < n then begin
      sched.(!released) <- c.Service.ack_ns +. !voff;
      incr released
    end
  in
  (* Each round: (a) if nothing is backlogged and the next arrival is in
     the future, jump to it; (b) pull every due arrival into its shard's
     backlog queue; (c) submit backlog heads per shard until a shed;
     (d) drain.  A drain empties every admission queue, so after it the
     inflight count is zero and step (c) always makes progress while
     any backlog remains — the loop terminates. *)
  while !completed < n do
    if !backlog_len = 0 && !next < n && sched.(!next) > vnow () then begin
      voff := sched.(!next) -. dev ();
      (* rounding of (sched - dev) + dev can land a few ulps short of
         sched, which would spin the jump forever; nudge up to it *)
      while vnow () < sched.(!next) do
        voff := Float.succ !voff
      done
    end;
    while !next < n && sched.(!next) <= vnow () do
      let key, _ = stream.(!next) in
      Queue.add !next backlog.(Service.shard_of_key svc key);
      incr backlog_len;
      incr next
    done;
    if !backlog_len > !max_backlog then max_backlog := !backlog_len;
    Array.iter
      (fun q ->
        let blocked = ref false in
        while (not !blocked) && not (Queue.is_empty q) do
          let idx = Queue.peek q in
          let key, op = stream.(idx) in
          incr attempts;
          match Service.submit svc ~client:idx ~key op with
          | Admission.Accepted ->
              ignore (Queue.pop q);
              decr backlog_len
          | Admission.Rejected _ ->
              (* the op stays at the head of its shard's backlog and
                 keeps accruing scheduled-time latency *)
              incr rejects;
              blocked := true
        done)
      backlog;
    ignore (Service.drain ~on_ack svc)
  done;
  let d = Stats.diff before (Pmem.stats pm) in
  let span_ns = vnow () in
  let last_arrival_ns = sched.(n - 1) in
  let per_sec ops ns = if ns > 0.0 then float_of_int ops /. (ns /. 1e9) else 0.0 in
  let goodput = per_sec !completed span_ns in
  let offered =
    (* rate <= 0 is the saturation probe: everything was offered at
       t = 0, so the offered load equals whatever the service absorbed *)
    if last_arrival_ns > 0.0 then per_sec n last_arrival_ns else goodput
  in
  {
    o_config = cfg;
    svc_config = scfg;
    ops = n;
    reads = tally.reads;
    writes = tally.writes;
    rmws = tally.rmws;
    scans = tally.scans;
    reads_sum = tally.reads_sum;
    attempts = !attempts;
    rejects = !rejects;
    max_backlog = !max_backlog;
    last_arrival_ns;
    span_ns;
    offered_ops_per_sec = offered;
    goodput_ops_per_sec = goodput;
    fences = d.Stats.fences;
    fences_per_op = float_of_int d.Stats.fences /. float_of_int n;
    latency = Hist.snapshot lat;
    shards = List.init scfg.Service.shards (Service.shard_stats svc);
  }

let shard_to_json (s : Service.shard_stats) =
  Json.Obj
    [
      ("shard", Json.Int s.s_id);
      ("ops", Json.Int s.s_ops);
      ("rejected", Json.Int s.s_rejected);
      ("batches", Json.Int s.s_batches);
      ("sealed_records", Json.Int s.s_sealed);
      ("max_inflight", Json.Int s.s_max_inflight);
    ]

(* counts and checksums are invariant; the rate, every time and every
   rate derived from one are on the simulated clock; nothing is read
   from the host clock *)
let report_to_json r =
  Sections.v
    ~invariant:
      [
        ("arrivals", Json.Str (arrivals_to_string r.o_config.arrivals));
        ("seed", Json.Int r.o_config.seed);
        ("shards", Json.Int r.svc_config.Service.shards);
        ("batch_max", Json.Int r.svc_config.Service.batch_max);
        ("depth", Json.Int r.svc_config.Service.depth);
        ("keys", Json.Int r.svc_config.Service.keys);
        ("ops", Json.Int r.ops);
        ("reads", Json.Int r.reads);
        ("writes", Json.Int r.writes);
        ("rmws", Json.Int r.rmws);
        ("scans", Json.Int r.scans);
        ("reads_sum", Json.Int r.reads_sum);
        ("attempts", Json.Int r.attempts);
        ("rejects", Json.Int r.rejects);
        ("max_backlog", Json.Int r.max_backlog);
        ("fences", Json.Int r.fences);
        ("per_shard", Json.List (List.map shard_to_json r.shards));
      ]
    ~modelled:
      [
        ("rate", Json.Float r.o_config.rate);
        ("last_arrival_ns", Json.Float r.last_arrival_ns);
        ("span_ns", Json.Float r.span_ns);
        ("offered_ops_per_sec", Json.Float r.offered_ops_per_sec);
        ("goodput_ops_per_sec", Json.Float r.goodput_ops_per_sec);
        ("fences_per_op", Json.Float r.fences_per_op);
        ("latency_ns", Hist.to_json r.latency);
      ]
    ~measured:[]

let pp ppf r =
  let q p = Hist.quantile r.latency p in
  let c = r.svc_config in
  Fmt.pf ppf "svc: %d shards, batch_max %d, depth %d, %d keys; %s arrivals%s@\n"
    c.Service.shards c.Service.batch_max c.Service.depth c.Service.keys
    (arrivals_to_string r.o_config.arrivals)
    (match r.o_config.arrivals with
    | Closed _ -> ""
    | Poisson | Burst _ -> Printf.sprintf " at %.0f/s" r.o_config.rate);
  Fmt.pf ppf
    "  %d ops (%d reads / %d writes / %d rmws / %d scans), offered %.0f/s \
     -> goodput %.0f/s@\n"
    r.ops r.reads r.writes r.rmws r.scans r.offered_ops_per_sec
    r.goodput_ops_per_sec;
  Fmt.pf ppf "  %d submit attempts, %d rejects, max backlog %d@\n" r.attempts
    r.rejects r.max_backlog;
  let sum f = List.fold_left (fun n s -> n + f s) 0 r.shards in
  (* every write and rmw seals a record; reads and scans never fence *)
  Fmt.pf ppf
    "  %d batches, %d sealed records, %d fences (%.3f/op, %.3f/write)@\n"
    (sum (fun s -> s.Service.s_batches))
    (sum (fun s -> s.Service.s_sealed))
    r.fences r.fences_per_op
    (float_of_int r.fences /. float_of_int (max 1 (r.writes + r.rmws)));
  Fmt.pf ppf "  release->ack latency ns p50=%d p90=%d p99=%d (span %.0f ns)@\n"
    (q 0.5) (q 0.9) (q 0.99) r.span_ns

(* ---- recovery under load ---- *)

type recovery_report = {
  rv_fuse : int;
  rv_halted : bool;
  rv_recover_ns : float;
  rv_audit_failures : int;
  rv_acked_before : int;
  rv_backlog : int;
  rv_resumed : int;
  rv_recover_wall_s : float;
  rv_first_ack_wall_s : float;
  rv_rto_wall_s : float;
  rv_total_wall_s : float;
}

let recovery_under_load ?params heap cfg stream ~fuse_batches =
  if fuse_batches < 1 then
    invalid_arg "Openloop.recovery_under_load: fuse_batches < 1";
  Array.iter
    (fun (_, op) ->
      match op with
      | Service.Rmw _ | Service.Scan _ ->
          invalid_arg
            "Openloop.recovery_under_load: read/write streams only (the \
             crash audit attributes cell states to unique write values)"
      | Service.Read | Service.Write _ -> ())
    stream;
  let wall0 = Unix.gettimeofday () in
  let plane = Dataplane.create ?params heap cfg in
  let n = Array.length stream in
  let keys = cfg.Dataplane.keys in
  let initial = Array.init keys (Dataplane.peek plane) in
  let acked = Array.make (max 1 n) false in
  let last_acked = Array.make keys (-1) in
  let last_acked_idx = Array.make keys (-1) in
  let on_ack ~idx ~value:_ =
    acked.(idx) <- true;
    match stream.(idx) with
    | k, Service.Write v ->
        last_acked.(k) <- v;
        last_acked_idx.(k) <- idx
    | _, _ -> ()
  in
  let r1 = Dataplane.run ~halt_after_batches:fuse_batches ~on_ack plane stream in
  Dataplane.crash plane;
  let pm = Specpmt_pmalloc.Heap.pmem heap in
  let before = Stats.copy (Pmem.stats pm) in
  let rec_wall0 = Unix.gettimeofday () in
  Dataplane.recover plane;
  let recover_wall_s = Unix.gettimeofday () -. rec_wall0 in
  let recover_ns = (Stats.diff before (Pmem.stats pm)).Stats.ns in
  (* acked-durable / unacked-invisible: every cell must hold its last
     acked value, its initial value (never acked), or the value of a
     LATER write — one that reached media inside a sealed batch whose
     ack the router never drained before the fuse blew *)
  let writes_by_key = Array.make keys [] in
  Array.iteri
    (fun idx (k, op) ->
      match op with
      | Service.Write v -> writes_by_key.(k) <- (idx, v) :: writes_by_key.(k)
      | _ -> ())
    stream;
  let failures = ref 0 in
  for k = 0 to keys - 1 do
    let got = Dataplane.peek plane k in
    let ok =
      (last_acked_idx.(k) >= 0 && got = last_acked.(k))
      || (last_acked_idx.(k) < 0 && got = initial.(k))
      || List.exists
           (fun (idx, v) -> idx > last_acked_idx.(k) && v = got)
           writes_by_key.(k)
    in
    if not ok then incr failures
  done;
  (* resume under the arrival backlog: everything not acked before the
     crash arrives again, in stream order *)
  let backlog = ref [] in
  for idx = n - 1 downto 0 do
    if not acked.(idx) then backlog := stream.(idx) :: !backlog
  done;
  let backlog = Array.of_list !backlog in
  let resume_wall0 = Unix.gettimeofday () in
  let first_ack = ref 0.0 in
  let resumed =
    if Array.length backlog = 0 then 0
    else
      let r2 =
        Dataplane.run
          ~on_ack:(fun ~idx:_ ~value:_ ->
            if !first_ack = 0.0 then
              first_ack := Unix.gettimeofday () -. resume_wall0)
          plane backlog
      in
      r2.Dataplane.total_ops
  in
  {
    rv_fuse = fuse_batches;
    rv_halted = r1.Dataplane.halted;
    rv_recover_ns = recover_ns;
    rv_audit_failures = !failures;
    rv_acked_before = r1.Dataplane.total_ops;
    rv_backlog = Array.length backlog;
    rv_resumed = resumed;
    rv_recover_wall_s = recover_wall_s;
    rv_first_ack_wall_s = !first_ack;
    rv_rto_wall_s = recover_wall_s +. !first_ack;
    rv_total_wall_s = Unix.gettimeofday () -. wall0;
  }

let recovery_to_json r =
  Sections.v
    ~invariant:
      [
        ("fuse_batches", Json.Int r.rv_fuse);
        ("halted", Json.Bool r.rv_halted);
        ("audit_failures", Json.Int r.rv_audit_failures);
      ]
    ~modelled:[ ("recover_ns", Json.Float r.rv_recover_ns) ]
    ~measured:
      [
        ("acked_before_crash", Json.Int r.rv_acked_before);
        ("backlog_ops", Json.Int r.rv_backlog);
        ("resumed_ops", Json.Int r.rv_resumed);
        ("recover_wall_s", Json.Float r.rv_recover_wall_s);
        ("first_ack_wall_s", Json.Float r.rv_first_ack_wall_s);
        ("rto_wall_s", Json.Float r.rv_rto_wall_s);
        ("total_wall_s", Json.Float r.rv_total_wall_s);
      ]

let pp_recovery ppf r =
  Fmt.pf ppf
    "recovery-under-load: fuse %d batches (halted=%b), %d acked before \
     crash, %d backlog@\n"
    r.rv_fuse r.rv_halted r.rv_acked_before r.rv_backlog;
  Fmt.pf ppf
    "  audit: %s (%d failures); recover %.0f sim ns / %.4f s wall@\n"
    (if r.rv_audit_failures = 0 then "clean" else "DIRTY")
    r.rv_audit_failures r.rv_recover_ns r.rv_recover_wall_s;
  Fmt.pf ppf
    "  RTO (restart -> first ack): %.4f s wall (first ack %.4f s after \
     resume), %d ops resumed@\n"
    r.rv_rto_wall_s r.rv_first_ack_wall_s r.rv_resumed
