(* Metric catalogue, outcome of one workload run, and its printing.

   Every metric names its clock: [Modelled] is the simulator's
   deterministic device time or counts, [Host] is the host clock
   normalised by the reference kernel (see host.ml), [Count] is an exact
   host-side count. *)

type clock = Modelled | Host | Count

let clock_name = function Modelled -> "modelled" | Host -> "host" | Count -> "count"

(* End-to-end metrics, in print order. *)
let e2e =
  [
    ("capacity_kops", "kops/s", Modelled);
    ("p50_us", "us", Modelled);
    ("p99_us", "us", Modelled);
    ("p999_us", "us", Modelled);
    ("media_wr_bytes_per_op", "B", Modelled);
    ("recover_ms", "ms", Modelled);
    ("host_us_per_op", "us", Host);
    ("setup_s", "s", Host);
    ("recover_host_ms", "ms", Host);
    ("mem_mb", "MiB", Count);
    ("failed_frac", "ratio", Count);
  ]

(* The end-to-end metrics every workload has, so the ones the benchmark
   bounds.  The latency percentiles need a per-op clock, which the data
   plane does not expose; they are reported with the per-layer set.
   failed_frac is the result line's failed / attempted. *)
let bounded =
  [
    "capacity_kops";
    "media_wr_bytes_per_op";
    "recover_ms";
    "host_us_per_op";
    "setup_s";
    "recover_host_ms";
    "mem_mb";
  ]

let stamp_apps =
  List.map (fun w -> w.Specpmt.Workload.name) Specpmt.Workload.all

(* Per-layer metrics, in print order, with their units.  A workload
   that does not run a layer reports 0 for it. *)
let layer =
  [
    ("submit.host_ns", "ns");
    ("admission.reject_frac", "ratio");
    ("admission.max_backlog", "count");
    ("drain.host_ns_per_op", "ns");
    ("drain.sim_ns_per_op", "ns");
    ("batch.size_mean", "count");
    ("seal.host_ns", "ns");
    ("seal.sim_ns", "ns");
    ("seal.fences_per_op", "count");
    ("seal.clwbs_per_op", "count");
    ("txn.read.host_ns", "ns");
    ("txn.write.host_ns", "ns");
    ("txn.rmw.host_ns", "ns");
    ("txn.write.sim_ns", "ns");
    ("txn.minor_words", "words");
    ("log.bytes_per_tx", "B");
    ("reclaim.cycles", "count");
    ("reclaim.bg_ns_per_op", "ns");
    ("log.compact.entries_live", "count");
    ("index.scan.host_ns", "ns");
    ("index.scan.sim_ns", "ns");
    ("index.scan.loads", "count");
    ("index.ensure.host_ns", "ns");
    ("index.ensure.sim_ns", "ns");
    ("shadow.hit_frac", "ratio");
    ("pmem.loads_per_op", "count");
    ("pmem.stores_per_op", "count");
    ("pmem.clwbs_per_op", "count");
    ("pmem.fences_per_op", "count");
    ("pmem.read_lines_per_op", "count");
    ("pmem.write_lines_per_op", "count");
    ("pmem.evictions_per_op", "count");
    ("pmem.seq_write_frac", "ratio");
    ("pmem.bg_ns_per_op", "ns");
    ("recover.log.sim_ms", "ms");
    ("recover.log.host_ms", "ms");
    ("recover.index.host_ms", "ms");
    ("recover.records_scanned", "count");
    ("recover.entries_scanned", "count");
    ("recover.data_writes", "count");
    ("dataplane.router_stalls_per_op", "count");
    ("dataplane.cpu_per_wall", "ratio");
  ]
  @ List.concat_map
      (fun app ->
        [
          ("stamp." ^ app ^ ".sim_ms", "ms");
          ("stamp." ^ app ^ ".host_ms", "ms");
          ("stamp." ^ app ^ ".fences_per_tx", "count");
          ("stamp." ^ app ^ ".write_lines_per_tx", "count");
        ])
      stamp_apps
  @ [
      ("gc.minor_words_per_op", "words");
      ("gc.major_collections", "count");
      ("trace.overhead_frac", "ratio");
      ("p50_us", "us");
      ("p99_us", "us");
      ("p999_us", "us");
    ]

type outcome = {
  workload : string;
  rounds : int;
  e2e_values : (string * float) list;  (** the end-to-end metrics that apply *)
  layer_values : (string * float) list;  (** measured per-layer metrics *)
  attempted : int;  (** outcomes checked: completions, audited cells, checksums *)
  failed : int;
  correct : bool;  (** failed = 0 and every determinism/trace check held *)
  notes : string list;
  samples : (string * float list) list;  (** per-round host samples *)
}

(* ---- statistics ---- *)

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile of an already sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Latency percentiles from per-op samples (ns), in us; also how many
   samples lie beyond p99.9. *)
let latency_us (lat : float array) =
  let s = Array.copy lat in
  Array.sort Float.compare s;
  let n = Array.length s in
  let beyond = n - int_of_float (Float.ceil (0.999 *. float_of_int n)) in
  ( [
      ("p50_us", percentile s 0.50 /. 1e3);
      ("p99_us", percentile s 0.99 /. 1e3);
      ("p999_us", percentile s 0.999 /. 1e3);
    ],
    beyond )

let mem_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ---- output ---- *)

let num v = Fmt.str "%a" Specpmt.Json.pp (Specpmt.Json.Float v)

let value name l =
  match List.assoc_opt name l with Some v -> v | None -> 0.0

let print_table o ~traced =
  let row name u clock v = Printf.printf "%-14s %-34s %16s %-7s %s\n" o.workload name (num v) u clock in
  List.iter
    (fun (name, u, clock) ->
      match List.assoc_opt name o.e2e_values with
      | Some v -> row name u (clock_name clock) v
      | None -> Printf.printf "%-14s %-34s %16s %-7s %s\n" o.workload name "n/a" u (clock_name clock))
    e2e;
  if traced then
    List.iter (fun (name, u) -> row name u "layer" (value name o.layer_values)) layer;
  List.iter (fun n -> Printf.printf "%-14s note: %s\n" o.workload n) o.notes

(* The last line of standard output: the benchmark's result record. *)
let result_line o ~traced =
  let metric (name, u) =
    let v = if traced then value name o.layer_values else value name o.e2e_values in
    (name, Specpmt.Json.Obj [ ("value", Specpmt.Json.Float v); ("unit", Specpmt.Json.Str u) ])
  in
  let metrics =
    if traced then List.map metric layer
    else
      List.filter_map
        (fun (name, u, _) -> if List.mem name bounded then Some (metric (name, u)) else None)
        e2e
  in
  Fmt.str "%a" Specpmt.Json.pp
    (Specpmt.Json.Obj
       [
         ("correct", Specpmt.Json.Bool o.correct);
         ("attempted", Specpmt.Json.Int o.attempted);
         ("failed", Specpmt.Json.Int o.failed);
         ("metrics", Specpmt.Json.Obj metrics);
       ])

let to_json o ~seed ~seconds =
  let open Specpmt.Json in
  let fl l = Obj (List.map (fun (k, v) -> (k, Float v)) l) in
  Obj
    [
      ("workload", Str o.workload);
      ("seed", Int seed);
      ("seconds", Int seconds);
      ("rounds", Int o.rounds);
      ("ref_kernel_median_ns", Float (Host.ref_median ()));
      ("correct", Bool o.correct);
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ("end_to_end", fl o.e2e_values);
      ("per_layer", fl o.layer_values);
      ("samples", Obj (List.map (fun (k, l) -> (k, List (List.map (fun v -> Float v) l))) o.samples));
      ("notes", List (List.map (fun s -> Str s) o.notes));
    ]
