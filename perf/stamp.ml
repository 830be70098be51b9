(* stamp: the paper's nine STAMP applications at Small scale under
   SpecSPMT, driven through [Workload.prepare] / [work] and the backend's
   [drain], each on a fresh device, then crashed and recovered.  No
   service or index layer runs, so this is the control for those layers.
   The [raw] scheme, run untimed, supplies the reference checksums. *)

open Specpmt

let name = "stamp"
let scale = Workload.Small
let scheme = "SpecSPMT"

(* The suite's inputs are fixed.  The seed picks the heap offset at which
   the suite's data is laid out — a pad allocation before [prepare] — so
   each seed measures another cache-line alignment of the same programs.
   Pad 0 is exactly [Run.run]'s layout. *)
let pad_of_seed seed = 16 * (1 + (seed land 15))

type app = {
  app : string;
  txs : int;  (** transactions of the measured phase *)
  d : Stats.t;  (** device counters of the measured phase *)
  lat : float array;  (** modelled ns per measured transaction *)
  checksum : int;
  recovered : int;  (** checksum after crash + recovery *)
  prepare : float;  (** normalised host ns (Host.timed) *)
  work : float;
  recover_ns : float;
  recover_host : float;
  minor_words : float;
  major_collections : int;
  counters : (string * float) list;  (** reclaim and recovery counters *)
}

let counters = [ "reclaim.cycles"; "reclaim.bg_ns"; "log.compact.entries_live" ]

let recover_counters =
  [ "recover.records_scanned"; "recover.entries_scanned"; "recover.data_writes" ]

let read_counters l = List.map (fun n -> (n, Ycsb.counter n)) l

(* One application on a fresh device; [recover = false] skips the crash
   (the raw scheme cannot recover). *)
let run_app ?spans ?(recover = true) ?(scale = scale) ~pad ~scheme (w : Workload.t) =
  Obs.Metrics.reset_all ();
  Gc.full_major ();
  let pm = Pmem.create ~seed:1 { Pmem_config.default with mem_size = Run.default_mem } in
  let heap = Heap.create pm in
  if pad > 0 then ignore (Heap.alloc heap pad);
  Option.iter (fun t -> Spans.set_device t pm) spans;
  let b = create_scheme heap scheme in
  let txs = ref 0 and lat = ref (Array.make 4096 0.0) in
  let now () = (Pmem.stats pm).Stats.ns in
  let counting =
    {
      b with
      Ctx.run_tx =
        (fun f ->
          let t0 = now () in
          let r = b.Ctx.run_tx f in
          if !txs = Array.length !lat then
            lat := Array.append !lat (Array.make (Array.length !lat) 0.0);
          !lat.(!txs) <- now () -. t0;
          incr txs;
          r);
    }
  in
  let prepared, prepare =
    Host.timed (fun () ->
        Spans.span spans "stamp.prepare" ~op:0 (fun () -> w.Workload.prepare scale heap counting))
  in
  let txs0 = !txs in
  let before = Stats.copy (Pmem.stats pm) in
  let g0 = Gc.quick_stat () in
  let (), work =
    Host.timed (fun () ->
        Spans.span spans "stamp.work" ~op:txs0 prepared.Workload.work;
        Spans.span spans "stamp.drain" ~op:txs0 b.Ctx.drain)
  in
  let g1 = Gc.quick_stat () in
  let d = Stats.diff before (Pmem.stats pm) in
  let reclaim = read_counters counters in
  let checksum = Pmem.with_unmetered pm prepared.Workload.checksum in
  let recover_ns, recover_host, recovered, rec_counters =
    if not recover then (0.0, 0.0, checksum, [])
    else begin
      Pmem.crash pm;
      Obs.Metrics.reset_all ();
      let ns0 = now () in
      let (), h =
        Ycsb.timed_quiet (fun () -> Spans.span spans "stamp.recover" ~op:(!txs - 1) b.Ctx.recover)
      in
      let ns = now () -. ns0 in
      (ns, h, Pmem.with_unmetered pm prepared.Workload.checksum, read_counters recover_counters)
    end
  in
  {
    app = w.Workload.name;
    txs = !txs - txs0;
    d;
    lat = Array.sub !lat txs0 (!txs - txs0);
    checksum;
    recovered;
    prepare;
    work;
    recover_ns;
    recover_host;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    counters = reclaim @ rec_counters;
  }

let round ?spans ~pad () = List.map (fun w -> run_app ?spans ~pad ~scheme w) Workload.all

let sum f l = List.fold_left (fun s a -> s +. f a) 0.0 l
let isum f l = List.fold_left (fun s a -> s + f a) 0 l
let fingerprint r = List.map (fun a -> (a.d.Stats.ns, a.d.Stats.fences, a.d.Stats.pm_write_lines, a.recover_ns, a.checksum)) r
let work_us r = sum (fun a -> a.work) r /. float_of_int (isum (fun a -> a.txs) r) /. 1e3

let run ?trace ~seed ~seconds () =
  let pad = pad_of_seed seed in
  let refs =
    List.map (fun w -> (run_app ~recover:false ~pad ~scheme:"raw" w).checksum) Workload.all
  in
  let t0 = Host.now_ns () in
  let first = round ~pad () in
  let mem = Report.mem_mb () in
  let rounds = ref [ first ] in
  if trace = None then
    while Host.now_ns () - t0 < seconds * 1_000_000_000 do
      rounds := round ~pad () :: !rounds
    done;
  let rounds = List.rev !rounds in
  let notes = ref [] in
  let repeat = List.for_all (fun r -> fingerprint r = fingerprint first) rounds in
  if not repeat then notes := "modelled results differ between rounds" :: !notes;
  let bad r =
    List.fold_left2
      (fun n a ck -> n + Bool.to_int (a.checksum <> ck) + Bool.to_int (a.recovered <> ck))
      0 r refs
  in
  let failed = isum bad rounds in
  let attempted = List.length rounds * 2 * List.length refs in
  let txs = float_of_int (isum (fun a -> a.txs) first) in
  let ns = sum (fun a -> a.d.Stats.ns) first in
  let lat, beyond = Report.latency_us (Array.concat (List.map (fun a -> a.lat) first)) in
  if beyond < 10 then notes := Printf.sprintf "only %d samples beyond p99.9" beyond :: !notes;
  let median f = Report.median (List.map f rounds) in
  let prepare_s r = sum (fun a -> a.prepare) r /. 1e9 in
  let recover_host_ms r = sum (fun a -> a.recover_host) r /. 1e6 in
  let wl = isum (fun a -> a.d.Stats.pm_write_lines) first in
  let e2e =
    [ ("capacity_kops", txs /. ns *. 1e6) ]
    @ lat
    @ [
        ("media_wr_bytes_per_op", float_of_int (wl * Addr.line_size) /. txs);
        ("recover_ms", sum (fun a -> a.recover_ns) first /. 1e6);
        ("host_us_per_op", median work_us);
        ("setup_s", median prepare_s);
        ("recover_host_ms", median recover_host_ms);
        ("mem_mb", mem);
        ("failed_frac", float_of_int failed /. float_of_int attempted);
      ]
  in
  let samples =
    [
      ("host_us_per_op", List.map work_us rounds);
      ("setup_s", List.map prepare_s rounds);
      ("recover_host_ms", List.map recover_host_ms rounds);
    ]
  in
  let dsum =
    List.fold_left
      (fun (s : Stats.t) a ->
        let d = a.d in
        {
          s with
          Stats.loads = s.Stats.loads + d.Stats.loads;
          stores = s.Stats.stores + d.Stats.stores;
          clwbs = s.Stats.clwbs + d.Stats.clwbs;
          fences = s.Stats.fences + d.Stats.fences;
          pm_read_lines = s.Stats.pm_read_lines + d.Stats.pm_read_lines;
          pm_write_lines = s.Stats.pm_write_lines + d.Stats.pm_write_lines;
          pm_write_lines_seq = s.Stats.pm_write_lines_seq + d.Stats.pm_write_lines_seq;
          evictions = s.Stats.evictions + d.Stats.evictions;
          ns = s.Stats.ns +. d.Stats.ns;
          bg_ns = s.Stats.bg_ns +. d.Stats.bg_ns;
        })
      (Stats.create ()) first
  in
  let counter n = sum (fun a -> Option.value ~default:0.0 (List.assoc_opt n a.counters)) first in
  let per_app =
    List.concat_map
      (fun a ->
        let t = float_of_int a.txs in
        let p = "stamp." ^ a.app in
        [
          (p ^ ".sim_ms", a.d.Stats.ns /. 1e6);
          ( p ^ ".host_ms",
            Report.median
              (List.map (fun r -> (List.find (fun b -> b.app = a.app) r).work /. 1e6) rounds) );
          (p ^ ".fences_per_tx", float_of_int a.d.Stats.fences /. t);
          (p ^ ".write_lines_per_tx", float_of_int a.d.Stats.pm_write_lines /. t);
        ])
      first
  in
  let layer =
    per_app @ Ycsb.device_layer dsum txs
    @ [
        ("reclaim.cycles", counter "reclaim.cycles");
        ("reclaim.bg_ns_per_op", counter "reclaim.bg_ns" /. txs);
        ("log.compact.entries_live", counter "log.compact.entries_live");
        ("recover.log.sim_ms", sum (fun a -> a.recover_ns) first /. 1e6);
        ("recover.log.host_ms", median recover_host_ms);
      ]
    @ List.map (fun n -> (n, counter n)) recover_counters
    @ [
        ("gc.minor_words_per_op", sum (fun a -> a.minor_words) first /. txs);
        ("gc.major_collections", float_of_int (isum (fun a -> a.major_collections) first));
      ]
    @ lat
  in
  let layer, correct, failed, attempted =
    match trace with
    | None -> (layer, repeat, failed, attempted)
    | Some t ->
        let traced = round ~spans:t ~pad () in
        let same = fingerprint traced = fingerprint first in
        if not same then notes := "tracing changed a modelled result" :: !notes;
        ( ("trace.overhead_frac", (work_us traced /. work_us first) -. 1.0) :: layer,
          repeat && same && Spans.chains t,
          failed + bad traced,
          attempted + (2 * List.length refs) )
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
