open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_backends
module Hist = Specpmt_obs.Hist
module Json = Specpmt_obs.Json
module Par = Specpmt_par.Par

(* The shard-per-domain data plane: a router domain forms batches from a
   deterministic op stream and hands them over SPSC rings to worker
   domains, each of which owns a group of shards — their Spec_soft
   runtimes, group-commit batchers and one incoherent Pmem view of the
   shared media.

   Ownership discipline (the whole correctness argument):

   - The media image is partitioned by cache line.  Each shard owns its
     key cells (a line-aligned region), its log blocks (a carved
     sub-heap region) and its log-head root slot (line-strided); a
     worker domain touches only lines of its own shards, through its
     own view.  The parent view's cache is detached (written back and
     emptied) before the views fork, and each view is detached at clean
     join, so no line is ever cached by two views with one of them
     dirty.
   - Admission, batch formation and ack accounting live on the router
     domain only.  Batch composition is positional in the stream —
     flush at [batch_max], partials at stream end — so the set of
     batches per shard is a pure function of (stream, config), never of
     domain count or timing: the invariant section of the report is
     byte-identical from 1 domain to N.
   - The shared Tsc is atomic; it is the only mutable state two worker
     domains both touch.

   Crash story: worker caches model per-core volatile caches.  A halted
   run ([~halt_after_batches]) stops the router mid-stream and the
   workers exit WITHOUT detaching — then {!crash} discards every view
   cache, losing exactly the unflushed in-place updates, and
   {!recover} replays the sealed log records against the single shared
   image through the parent view, exactly as Spec_mt.recover would
   after a real power failure. *)

type config = {
  shards : int;
  domains : int;  (** worker domains; shard [s] runs on domain [s mod domains] *)
  batch_max : int;
  depth : int;  (** per-shard inflight bound; must be >= batch_max *)
  keys : int;
  log_region_bytes : int;  (** per-shard carved log region *)
}

let default_log_region_bytes = 1 lsl 21

(* router -> worker: one batch of (key, op, stream index) for one shard;
   Stop ends the worker, detaching its view's cache only on clean
   shutdown *)
type msg =
  | Batch of { b_shard : int; b_reqs : (int * Shards.op * int) array }
  | Stop of { detach : bool }

(* worker -> router: executed batch — stream indices and values in
   batch order, as parallel int arrays (no per-op tuple boxing) *)
type comp = { cp_shard : int; cp_idx : int array; cp_vals : int array }

type t = {
  cfg : config;
  pm : Pmem.t;  (* parent view: recovery and post-join audits only *)
  views : Pmem.t array;  (* one per worker domain *)
  core : Shards.t;  (* shard [s] runs on domain [s mod domains] *)
  adm : (int * Shards.op * int) Admission.t array;  (* router-side *)
  req_rings : msg Spsc.t array;  (* router -> domain *)
  ack_rings : comp Spsc.t array;  (* domain -> router *)
}

let domain_of_shard t s = s mod t.cfg.domains

let create ?(params = Spec_soft.default_params) t_heap cfg =
  let rows = Shards.rows ~shards:cfg.shards ~keys:cfg.keys in
  if cfg.domains < 1 || cfg.domains > cfg.shards then
    invalid_arg "Dataplane.create: 1..shards domains";
  if cfg.batch_max < 1 then invalid_arg "Dataplane.create: batch_max < 1";
  if cfg.depth < cfg.batch_max then
    invalid_arg "Dataplane.create: depth < batch_max";
  if cfg.log_region_bytes < 1 lsl 16 then
    invalid_arg "Dataplane.create: log_region_bytes < 64 KiB";
  (* compaction must fire well inside the carved region: the splice
     allocates the compacted chain before freeing the old one, so the
     trigger must leave headroom *)
  let params =
    {
      params with
      Spec_soft.reclaim_bytes =
        min params.Spec_soft.reclaim_bytes (cfg.log_region_bytes / 4);
    }
  in
  let pm = Heap.pmem t_heap in
  Shards.building @@ fun () ->
  (* Parent-side formatting: per-shard line-aligned key regions (packed
     cells, so a shard's keys share lines only with each other) and
     per-shard carved log regions. *)
  let cells = Array.make cfg.keys 0 in
  Array.iter
    (fun row ->
      let n = Array.length row in
      if n > 0 then begin
        let raw = Heap.alloc t_heap ((n * 8) + Addr.line_size) in
        let base = Addr.align_up raw Addr.line_size in
        Array.iteri (fun i k -> cells.(k) <- base + (i * 8)) row
      end)
    rows;
  let regions =
    Array.init cfg.shards (fun _ ->
        Heap.carve_region t_heap ~bytes:cfg.log_region_bytes)
  in
  (* Ownership handoff: everything the parent cached while formatting is
     written back before the per-domain views fork. *)
  Pmem.detach_cache pm;
  let views =
    Array.init cfg.domains (fun d -> Pmem.fork_view ~seed:(47 + d) pm)
  in
  let sub_heaps =
    Array.init cfg.shards (fun s ->
        Heap.of_region views.(s mod cfg.domains) regions.(s))
  in
  let pool =
    Spec_mt.create ~params ~runtime_heaps:sub_heaps t_heap
      ~threads:cfg.shards
  in
  (* Adoption and the ordered index, as in the serial service, run on
     the router through each shard's view — before any worker spawns,
     so the spawn provides the happens-before edge.  Tree nodes come
     from the carved sub-heaps (line-disjoint like the key cells); the
     directory and root slot go through the parent, whose cache must be
     detached again before any worker forks, since the directory write
     and its heap allocation dirtied parent lines. *)
  let core = Shards.create ~shadow:true t_heap ~pool ~rows ~cells in
  Pmem.detach_cache pm;
  let spd = (cfg.shards + cfg.domains - 1) / cfg.domains in
  let ring_cap = (spd * cfg.depth) + 8 in
  {
    cfg;
    pm;
    views;
    core;
    adm = Array.init cfg.shards (fun _ -> Admission.create ~depth:cfg.depth);
    req_rings =
      Array.init cfg.domains (fun _ ->
          Spsc.create ~dummy:(Stop { detach = false }) ~capacity:ring_cap);
    ack_rings =
      Array.init cfg.domains (fun _ ->
          Spsc.create
            ~dummy:{ cp_shard = -1; cp_idx = [||]; cp_vals = [||] }
            ~capacity:ring_cap);
  }

(* Unmetered post-join/post-recovery read: the parent cache is empty
   (detached) outside a run, so this observes the merged media image. *)
let peek t k =
  if k < 0 || k >= t.cfg.keys then invalid_arg "Dataplane.peek: bad key";
  Pmem.peek_volatile_int t.pm (Shards.cell t.core k)

let table_crc t =
  let crc = ref 0 in
  for k = 0 to t.cfg.keys - 1 do
    crc := ((!crc * 31) + peek t k) land max_int
  done;
  !crc

(* ---- reports ---- *)

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
  (* invariant across domain counts *)
  total_ops : int;
  reads : int;
  writes : int;
  rmws : int;
  scans : int;
  reads_sum : int;  (** checksum over read/rmw/scan results *)
  table_crc : int;  (** final key-table fingerprint (clean runs only) *)
  fences : int;
  batches : int;
  sealed_records : int;
  per_shard : shard_report list;
  (* measured (wall clock, host-dependent) *)
  wall_s : float;
  wall_ops_per_sec : float;
  wall_latency : Hist.snapshot;  (** wall ns, admission to ack *)
  router_stalls : int;
  (* modelled (simulated device time, per-domain clocks) *)
  sim_ns_max : float;  (** modelled makespan: slowest domain's clock *)
  sim_ns_sum : float;
  sim_bg_ns : float;
  pm_write_lines : int;
  pm_read_lines : int;
}

exception Halted

let run ?(halt_after_batches = max_int) ?(on_ack = fun ~idx:_ ~value:_ -> ())
    t stream =
  let cfg = t.cfg in
  let n_ops = Array.length stream in
  Array.iter
    (fun (k, op) ->
      if k < 0 || k >= cfg.keys then invalid_arg "Dataplane.run: bad key";
      match op with
      | Shards.Scan len when len < 1 ->
          invalid_arg "Dataplane.run: scan length < 1"
      | _ -> ())
    stream;
  let before = Array.map (fun v -> Stats.copy (Pmem.stats v)) t.views in
  let worker d () =
    let running = ref true in
    while !running do
      match Spsc.try_pop t.req_rings.(d) with
      | Some (Batch { b_shard; b_reqs }) ->
          (* every op runs through its shard's reusable transaction
             closure, so the batch loop allocates only the two
             completion arrays the router needs anyway *)
          let m = Array.length b_reqs in
          let cp_idx = Array.make m 0 and cp_vals = Array.make m 0 in
          Shards.batch_begin t.core b_shard;
          for i = 0 to m - 1 do
            let key, op, idx = b_reqs.(i) in
            cp_idx.(i) <- idx;
            cp_vals.(i) <- Shards.exec t.core b_shard ~key op
          done;
          Shards.batch_end t.core b_shard ~n:m;
          let comp = { cp_shard = b_shard; cp_idx; cp_vals } in
          (* sized so this never blocks while the router is halted: the
             admission depth bounds outstanding completions per shard *)
          while not (Spsc.try_push t.ack_rings.(d) comp) do
            Domain.cpu_relax ()
          done
      | Some (Stop { detach }) ->
          if detach then begin
            (* clean stop: flush this domain's shadow-mirror counter
               deltas into its domain-local registry so they ride the
               normal export/absorb merge at join *)
            for s = 0 to cfg.shards - 1 do
              if domain_of_shard t s = d then
                Oindex.publish_shadow (Shards.index t.core) ~shard:s
            done;
            Pmem.detach_cache t.views.(d)
          end;
          running := false
      | None -> Domain.cpu_relax ()
    done
  in
  let wall0 = Unix.gettimeofday () in
  let workers = Array.init cfg.domains (fun d -> Par.spawn (worker d)) in
  (* ---- router ---- *)
  let enq_wall = Array.make (max 1 n_ops) 0.0 in
  let lat = Hist.create () in
  let acked = Array.make cfg.shards 0 in
  let tally = Shards.tally () in
  let stalls = ref 0 in
  let batches_sent = ref 0 in
  let drain_acks () =
    let got = ref false in
    Array.iter
      (fun ring ->
        match Spsc.try_pop ring with
        | None -> ()
        | Some comp ->
            got := true;
            let m = Array.length comp.cp_idx in
            Admission.ack t.adm.(comp.cp_shard) m;
            acked.(comp.cp_shard) <- acked.(comp.cp_shard) + m;
            let now = Unix.gettimeofday () in
            for i = 0 to m - 1 do
              let idx = comp.cp_idx.(i) and value = comp.cp_vals.(i) in
              Shards.count tally (snd stream.(idx)) value;
              on_ack ~idx ~value;
              Hist.observe lat (int_of_float ((now -. enq_wall.(idx)) *. 1e9))
            done)
      t.ack_rings;
    !got
  in
  let send s reqs =
    let msg = Batch { b_shard = s; b_reqs = Array.of_list reqs } in
    let ring = t.req_rings.(domain_of_shard t s) in
    while not (Spsc.try_push ring msg) do
      if not (drain_acks ()) then Domain.cpu_relax ()
    done;
    incr batches_sent;
    if !batches_sent >= halt_after_batches then raise Halted
  in
  let flush s =
    match Admission.take_up_to t.adm.(s) cfg.batch_max with
    | [] -> ()
    | reqs -> send s reqs
  in
  let stop detach =
    Array.iter
      (fun ring ->
        while not (Spsc.try_push ring (Stop { detach })) do
          Domain.cpu_relax ()
        done)
      t.req_rings
  in
  let halted =
    match
      Array.iteri
        (fun idx (key, op) ->
          let s = Shards.route ~shards:cfg.shards key in
          (* closed-loop backpressure: wait for shard capacity *)
          let stalled = ref false in
          while Admission.inflight t.adm.(s) >= cfg.depth do
            stalled := true;
            if not (drain_acks ()) then Domain.cpu_relax ()
          done;
          if !stalled then incr stalls;
          enq_wall.(idx) <- Unix.gettimeofday ();
          (match Admission.offer t.adm.(s) (key, op, idx) with
          | Admission.Accepted -> ()
          | Admission.Rejected _ -> assert false);
          if Admission.queued t.adm.(s) >= cfg.batch_max then flush s)
        stream;
      (* partial batches, deterministically in shard order *)
      for s = 0 to cfg.shards - 1 do
        flush s
      done
    with
    | () ->
        (* clean shutdown: wait out every inflight op, then stop the
           workers with a cache detach so the parent sees merged media *)
        let inflight () =
          Array.fold_left (fun n a -> n + Admission.inflight a) 0 t.adm
        in
        while inflight () > 0 do
          if not (drain_acks ()) then Domain.cpu_relax ()
        done;
        stop true;
        false
    | exception Halted ->
        (* crash drill: stop immediately — no partial flush, no ack
           drain; workers exit without detaching, leaving their unflushed
           in-place updates to die with the caches *)
        stop false;
        true
  in
  ignore (Par.join_all workers);
  let wall_s = Unix.gettimeofday () -. wall0 in
  let diffs =
    Array.mapi (fun i v -> Stats.diff before.(i) (Pmem.stats v)) t.views
  in
  let total_ops = Array.fold_left ( + ) 0 acked in
  let per_shard =
    List.init cfg.shards (fun s ->
        let gc = Shards.batcher t.core s in
        {
          d_shard = s;
          d_domain = domain_of_shard t s;
          d_ops = acked.(s);
          d_batches = Group_commit.batches gc;
          d_sealed = Group_commit.sealed_records gc;
        })
  in
  let fsum f = Array.fold_left (fun a d -> a +. f d) 0.0 diffs in
  let isum f = Array.fold_left (fun a d -> a + f d) 0 diffs in
  {
    domains = cfg.domains;
    halted;
    total_ops;
    reads = tally.reads;
    writes = tally.writes;
    rmws = tally.rmws;
    scans = tally.scans;
    reads_sum = tally.reads_sum;
    table_crc = (if halted then 0 else table_crc t);
    fences = isum (fun d -> d.Stats.fences);
    batches = List.fold_left (fun n s -> n + s.d_batches) 0 per_shard;
    sealed_records = List.fold_left (fun n s -> n + s.d_sealed) 0 per_shard;
    per_shard;
    wall_s;
    wall_ops_per_sec =
      (if wall_s > 0.0 then float_of_int total_ops /. wall_s else 0.0);
    wall_latency = Hist.snapshot lat;
    router_stalls = !stalls;
    sim_ns_max = Array.fold_left (fun a d -> Float.max a d.Stats.ns) 0.0 diffs;
    sim_ns_sum = fsum (fun d -> d.Stats.ns);
    sim_bg_ns = fsum (fun d -> d.Stats.bg_ns);
    pm_write_lines = isum (fun d -> d.Stats.pm_write_lines);
    pm_read_lines = isum (fun d -> d.Stats.pm_read_lines);
  }

(* ---- crash / recovery against the single shared image ---- *)

let crash t =
  (* every view's cache dies in place (the ring buffers and admission
     state die with the run); the parent cache is already empty *)
  Array.iter Pmem.discard_cache t.views;
  Pmem.crash_with t.pm ~persist:(fun _ -> false)

let recover t =
  (* the pool recovers through the parent view over the merged media:
     root heap, per-shard sub-heaps, log scan + coalesced replay,
     reattach of every runtime through its own (now empty) view; the
     index is rediscovered through the shards' own views (unmetered
     peeks, so the parent cache stays clean) *)
  Shards.recover t.core;
  Array.iter Admission.clear t.adm;
  (* a halted run leaves undrained completions (and, in principle,
     unconsumed stops) in the rings; they died with the crash *)
  let drain ring = while Spsc.try_pop ring <> None do () done in
  Array.iter drain t.ack_rings;
  Array.iter drain t.req_rings;
  (* the replayed cells sit clean in the parent cache: hand them back
     to the views before the next run dirties those lines *)
  Pmem.detach_cache t.pm

(* ---- json ---- *)

(* no [domain] here: shard->domain placement depends on the domain
   count, and per_shard sits in the invariant section — placement is
   reported under [measured] instead *)
let shard_to_json s =
  Json.Obj
    [
      ("shard", Json.Int s.d_shard);
      ("ops", Json.Int s.d_ops);
      ("batches", Json.Int s.d_batches);
      ("sealed_records", Json.Int s.d_sealed);
    ]

(* [invariant] must be byte-identical across domain counts (CI diffs
   it 1 vs N); [modelled] is simulated device time, whose cache locality
   legitimately depends on the shard->domain packing; [measured] is the
   domain layout and host wall clock. *)
let report_to_json cfg r =
  Specpmt_obs.Sections.v
    ~invariant:
      [
        ("shards", Json.Int cfg.shards);
        ("batch_max", Json.Int cfg.batch_max);
        ("depth", Json.Int cfg.depth);
        ("keys", Json.Int cfg.keys);
        ("halted", Json.Bool r.halted);
        ("total_ops", Json.Int r.total_ops);
        ("reads", Json.Int r.reads);
        ("writes", Json.Int r.writes);
        ("rmws", Json.Int r.rmws);
        ("scans", Json.Int r.scans);
        ("reads_sum", Json.Int r.reads_sum);
        ("table_crc", Json.Int r.table_crc);
        ("fences", Json.Int r.fences);
        ("batches", Json.Int r.batches);
        ("sealed_records", Json.Int r.sealed_records);
        ("per_shard", Json.List (List.map shard_to_json r.per_shard));
      ]
    ~modelled:
      [
        ("sim_ns_max", Json.Float r.sim_ns_max);
        ("sim_ns_sum", Json.Float r.sim_ns_sum);
        ("sim_bg_ns", Json.Float r.sim_bg_ns);
        ( "sim_ops_per_sec_max",
          Json.Float
            (if r.sim_ns_max > 0.0 then
               float_of_int r.total_ops /. (r.sim_ns_max /. 1e9)
             else 0.0) );
        ("pm_write_lines", Json.Int r.pm_write_lines);
        ("pm_read_lines", Json.Int r.pm_read_lines);
      ]
    ~measured:
      [
        ("domains", Json.Int r.domains);
        ( "placement",
          Json.List (List.map (fun s -> Json.Int s.d_domain) r.per_shard) );
        ("wall_s", Json.Float r.wall_s);
        ("wall_ops_per_sec", Json.Float r.wall_ops_per_sec);
        ("wall_latency_ns", Hist.to_json r.wall_latency);
        ("router_stalls", Json.Int r.router_stalls);
      ]

let pp ppf (cfg, r) =
  let q p = Hist.quantile r.wall_latency p in
  Fmt.pf ppf
    "dataplane: %d shards on %d domains, batch_max %d, depth %d, %d keys@\n"
    cfg.shards r.domains cfg.batch_max cfg.depth cfg.keys;
  Fmt.pf ppf
    "  %d ops (%d reads / %d writes / %d rmws / %d scans), %d batches, \
     %d sealed@\n"
    r.total_ops r.reads r.writes r.rmws r.scans r.batches r.sealed_records;
  Fmt.pf ppf
    "  measured: %.3f s wall, %.0f ops/s, latency us p50=%.1f p99=%.1f \
     (%d router stalls)@\n"
    r.wall_s r.wall_ops_per_sec
    (float_of_int (q 0.5) /. 1e3)
    (float_of_int (q 0.99) /. 1e3)
    r.router_stalls;
  Fmt.pf ppf
    "  modelled: %.0f ns makespan (max domain), %.0f ns total, %d fences@\n"
    r.sim_ns_max r.sim_ns_sum r.fences;
  List.iter
    (fun s ->
      Fmt.pf ppf "    shard %d (domain %d): %6d ops %5d batches %6d sealed@\n"
        s.d_shard s.d_domain s.d_ops s.d_batches s.d_sealed)
    r.per_shard
