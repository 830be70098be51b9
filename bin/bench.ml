(* specpmt_run bench: regenerates every table and figure of the paper's
   evaluation (Section 7) on the simulated substrate, plus the extension
   experiments.

     specpmt_run bench                          -- everything, Small inputs
     specpmt_run bench fig12 fig13              -- selected experiments
     specpmt_run bench --scale quick all        -- smallest inputs
     specpmt_run bench --scale full all         -- larger inputs
     specpmt_run bench --scale quick --json out.json
                                                -- also write a JSON report
     specpmt_run bench --jobs 4 fig1            -- grid points on 4 domains

   The experiments, in run order, are the rows of [experiments] at the
   end of this file.  Measurements are simulated time and traffic; the
   paper's reference numbers are printed alongside (see EXPERIMENTS.md
   for the comparison discussion). *)

open Specpmt

let workload name = Option.get (Workload.find name)

(* ---------- measurement cache (figures share runs) ---------- *)

let cache : (string * string * float, Run.measurement) Hashtbl.t =
  Hashtbl.create 64

let scale = ref Workload.Small

let by_scale ~quick ~small ~full =
  match !scale with
  | Workload.Quick -> quick
  | Workload.Small -> small
  | Workload.Full -> full

(* Worker domains for the independent grid points ([--jobs N]); the
   figures themselves always assemble from the cache serially, so the
   printed tables and the JSON report are byte-identical for any jobs
   count. *)
let jobs = ref 1

(* ---------- JSON report (--json FILE) ---------- *)

(* Every measurement is recorded the first time a figure {e uses} its
   (scheme, workload, multiplier) key — not when it is computed — so the
   report rows land in figure order whether the cache was filled
   serially on demand or prewarmed by the domain pool.  Later uses of a
   key record nothing, so figures that share runs do not duplicate
   rows. *)
let recording = ref false
let recorded : (float * Run.measurement) list ref = ref []

let recorded_keys : (string * string * float, unit) Hashtbl.t =
  Hashtbl.create 64

let record ((_, _, cs) as k) m =
  if !recording && not (Hashtbl.mem recorded_keys k) then begin
    Hashtbl.add recorded_keys k ();
    recorded := (cs, m) :: !recorded
  end

(* Additive top-level sections beside [results], in report order, each
   filled by one experiment: recovery-sweep, svc, svc-scale (one
   Dataplane report per domain count), ycsb and scan.  A section is the
   list of its rows, except [ycsb] and [scan]: each is the one
   invariant / modelled / measured report its experiment records. *)
let sections = [ "recovery_sweep"; "svc"; "svc_scale"; "ycsb"; "scan" ]
let section_rows : (string * Json.t) list ref = ref []

let record_in key row =
  if !recording then section_rows := (key, row) :: !section_rows

let section key =
  let mine (k, row) = if k = key then Some row else None in
  match List.filter_map mine (List.rev !section_rows) with
  | [] -> []
  | [ report ] when key = "ycsb" || key = "scan" -> [ (key, report) ]
  | rows -> [ (key, Json.List rows) ]

let write_json_report ~scale_name ~wall_s path =
  let results =
    List.rev_map
      (fun (cs, m) ->
        match Run.measurement_to_json m with
        | Json.Obj kvs -> Json.Obj (kvs @ [ ("compute_scale", Json.Float cs) ])
        | j -> j)
      !recorded
  in
  Json.to_file path
    (Cli.envelope ~generator:"specpmt-bench"
       ((("scale", Json.Str scale_name) :: ("results", Json.List results)
        :: List.concat_map section sections)
       (* the wall clock of the selected experiments, the denominator of
          the --jobs speedup *)
       @ [ ("measured", Json.Obj [ ("wall_s", Json.Float wall_s) ]) ]));
  Printf.printf "\nwrote %d measurements to %s\n" (List.length results) path

(* The paper's software results come from a real machine running full
   STAMP inputs, where computation per transaction dwarfs the simulator
   workloads'; its hardware results come from gem5 with simulator inputs.
   The software figures therefore run with a one-off calibrated compute
   multiplier (see the `ablation` experiment for its sensitivity, and
   EXPERIMENTS.md for the justification). *)
let sw_compute_scale = 4.0

let measure scheme wname =
  let k = (scheme, wname, Workload.compute_scale ()) in
  let m =
    match Hashtbl.find_opt cache k with
    | Some m -> m
    | None ->
        let m = Run.run ~scheme (workload wname) !scale in
        Hashtbl.replace cache k m;
        m
  in
  record k m;
  m

let with_compute_scale k f =
  let saved = Workload.compute_scale () in
  Workload.set_compute_scale k;
  Fun.protect ~finally:(fun () -> Workload.set_compute_scale saved) f

(* Fill the cache for a figure's (scheme x workload x multiplier) grid
   concurrently: each point is an independent simulator instance, so
   they fan out over the domain pool; the figure then reads the cache
   serially and records rows in its own deterministic order. *)
let prewarm grid =
  let todo = List.filter (fun k -> not (Hashtbl.mem cache k)) grid in
  if !jobs > 1 && List.length todo > 1 then begin
    let ms =
      Par.map_list ~jobs:!jobs
        (fun (scheme, wname, cs) ->
          Workload.set_compute_scale cs;
          Run.run ~scheme (workload wname) !scale)
        todo
    in
    List.iter2 (fun k m -> Hashtbl.replace cache k m) todo ms
  end

(* A figure over [schemes] x the paper's workloads at compute multiplier
   [cs]: the grid [prewarm] fills, and the figure, run at [cs]. *)
let figure ~cs schemes body =
  ( List.concat_map
      (fun s -> List.map (fun w -> (s, w, cs)) Paper.workloads)
      schemes,
    fun () -> with_compute_scale cs body )

let geomean l =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float (List.length l))

(* Spearman rank correlation between our per-workload series and the
   paper's — a one-number "shape score" per scheme. *)
let spearman xs ys =
  let rank l =
    let idx = List.mapi (fun i v -> (v, i)) l in
    let sorted = List.sort compare idx in
    let ranks = Array.make (List.length l) 0.0 in
    List.iteri (fun r (_, i) -> ranks.(i) <- float_of_int r) sorted;
    ranks
  in
  let rx = rank xs and ry = rank ys in
  let n = float_of_int (Array.length rx) in
  let d2 =
    Array.to_list (Array.mapi (fun i x -> (x -. ry.(i)) ** 2.0) rx)
    |> List.fold_left ( +. ) 0.0
  in
  1.0 -. (6.0 *. d2 /. (n *. ((n *. n) -. 1.0)))

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row_label = Printf.printf "%-14s"

(* ---------- Table 1: system configuration ---------- *)

let table1 () =
  header "Table 1: system configuration (simulated)";
  let c = Pmem_config.default in
  let h = Hwconfig.default in
  Printf.printf "CPU              4 GHz core, sequential interpreter, MESI-free cache model\n";
  Printf.printf "L1 TLB           %d entries (hotness tracked while resident)\n"
    h.Hwconfig.l1_tlb_entries;
  Printf.printf "L2 TLB           %d entries\n" h.Hwconfig.l2_tlb_entries;
  Printf.printf "Cache            %d lines (%d KiB), hit %.1f ns\n"
    c.Pmem_config.cache_capacity_lines
    (c.Pmem_config.cache_capacity_lines * 64 / 1024)
    c.Pmem_config.l1_hit_ns;
  Printf.printf "PM               read %.0f ns; write %.0f ns (%.0f ns sequential)\n"
    c.Pmem_config.pm_read_ns c.Pmem_config.pm_write_ns
    c.Pmem_config.pm_seq_write_ns;
  Printf.printf "WPQ              %d lines (%d B), accept %.0f ns; fence %.0f ns\n"
    c.Pmem_config.wpq_lines
    (c.Pmem_config.wpq_lines * 64)
    c.Pmem_config.wpq_accept_ns c.Pmem_config.fence_ns;
  Printf.printf "Hot threshold    %d stores while TLB-resident\n"
    h.Hwconfig.hot_threshold;
  Printf.printf "Epochs           new epoch past %d KiB or %d pages; log budget %d MiB\n"
    (h.Hwconfig.epoch_max_bytes / 1024)
    h.Hwconfig.epoch_max_pages
    (h.Hwconfig.log_budget_bytes / 1024 / 1024);
  Printf.printf "On-chip cost     2 bits/TLB entry + 2 bits/L1 line = 0.91 KB per core (paper 5.4)\n"

(* ---------- Table 2: transaction profiles ---------- *)

let table2 =
  figure ~cs:1.0 [ "raw" ] @@ fun () ->
  header "Table 2: size and number of transactions (ours at this scale vs paper at full scale)";
  Printf.printf "%-14s %28s   %34s\n" "" "measured (raw scheme)"
    "paper (full STAMP inputs)";
  Printf.printf "%-14s %10s %8s %10s   %10s %10s %12s\n" "application"
    "B/tx" "txs" "updates" "B/tx" "txs" "updates";
  List.iter
    (fun (wname, pb, ptx, pup) ->
      let m = measure "raw" wname in
      Printf.printf "%-14s %10.1f %8d %10d   %10.1f %10d %12d\n" wname
        m.Run.avg_tx_bytes m.Run.txs m.Run.updates pb ptx pup)
    Paper.table2

(* ---------- Table 3: design-space summary ---------- *)

let table3 () =
  header "Table 3: related-work design space (qualitative, from the paper)";
  let rows =
    [
      ("EDE", "hardware", "non-fence ordering", "synchronous", "direct");
      ("ATOM/Proteus", "hardware", "non-fence ordering", "synchronous", "direct");
      ("TSOPER/ASAP", "hardware", "non-fence ordering", "asynchronous", "direct");
      ("HOOP/ReDu", "hardware", "eliminated", "asynchronous", "indirect");
      ("PMDK", "software", "fence", "synchronous", "direct");
      ("Kamino-Tx", "software", "fence", "asynchronous", "direct");
      ("LSNVMM", "software", "eliminated", "eliminated", "indirect");
      ("Pronto", "software", "eliminated", "eliminated", "direct");
      ("SpecPMT (this)", "both", "eliminated", "eliminated", "direct");
    ]
  in
  Printf.printf "%-16s %-10s %-20s %-13s %-9s\n" "system" "platform"
    "log/update ordering" "data persist" "access";
  List.iter
    (fun (a, b, c, d, e) ->
      Printf.printf "%-16s %-10s %-20s %-13s %-9s\n" a b c d e)
    rows

(* ---------- Figure 1: residual overheads of the state of the art ---------- *)

(* one half of Figure 1: each scheme's overhead over [baseline] per
   workload, then the paper's geomean *)
let overhead_table (baseline, paper) =
  Printf.printf "%-14s" "";
  List.iter (fun (s, _) -> Printf.printf " %12s" s) paper;
  print_newline ();
  List.iter
    (fun wname ->
      row_label wname;
      let base = (measure baseline wname).Run.ns in
      List.iter
        (fun (s, _) ->
          let m = measure s wname in
          Printf.printf " %11.0f%%" ((m.Run.ns -. base) /. base *. 100.0))
        paper;
      print_newline ())
    Paper.workloads;
  row_label "paper geomean";
  List.iter (fun (_, p) -> Printf.printf " %11.0f%%" p) paper;
  print_newline ()

let fig1 =
  let sw = ("raw", Paper.fig1_sw) and hw = ("no-log", Paper.fig1_hw) in
  let schemes (baseline, paper) = baseline :: List.map fst paper in
  figure ~cs:sw_compute_scale (schemes sw @ schemes hw) @@ fun () ->
  header
    (Printf.sprintf
       "Figure 1: execution-time overhead over no-transaction versions \
        (software rows at compute x%.0f)"
       sw_compute_scale);
  Printf.printf
    "(absolute percentages are inflated on the simulator — compute is \
     modelled,\n not executed; the ordering and the relative gaps are the \
     reproduction target)\n\n";
  Printf.printf "software (baseline: raw)%40s\n" "";
  overhead_table sw;
  Printf.printf "\nhardware (baseline: no-log)\n";
  overhead_table hw

(* ---------- Figures 12/13: speedups ---------- *)

let scheme_names paper = List.map (fun (s, _, _) -> s) paper

let speedup_figure ~title ~cs ~baseline ~paper =
  let schemes = scheme_names paper in
  figure ~cs (baseline :: schemes) @@ fun () ->
  header title;
  Printf.printf "%-14s" "";
  List.iter (fun s -> Printf.printf " %12s" s) schemes;
  print_newline ();
  let per_scheme = Hashtbl.create 8 in
  List.iter
    (fun wname ->
      row_label wname;
      let base = (measure baseline wname).Run.ns in
      List.iter
        (fun s ->
          let m = measure s wname in
          let sp = base /. m.Run.ns in
          Hashtbl.replace per_scheme s
            (sp :: Option.value ~default:[] (Hashtbl.find_opt per_scheme s));
          Printf.printf " %11.2fx" sp)
        schemes;
      print_newline ())
    Paper.workloads;
  row_label "geomean";
  List.iter
    (fun s -> Printf.printf " %11.2fx" (geomean (Hashtbl.find per_scheme s)))
    schemes;
  print_newline ();
  row_label "paper geomean";
  List.iter (fun (_, _, g) -> Printf.printf " %11.2fx" g) paper;
  print_newline ();
  (* per-scheme rank correlation of the per-workload series vs the paper *)
  row_label "shape (rho)";
  List.iter
    (fun (s, series, _) ->
      let ours = List.rev (Hashtbl.find per_scheme s) in
      Printf.printf " %12.2f" (spearman ours series))
    paper;
  print_newline ()

let fig12 =
  speedup_figure
    ~title:
      (Printf.sprintf
         "Figure 12: speedup over PMDK (software schemes, compute x%.0f)"
         sw_compute_scale)
    ~cs:sw_compute_scale ~baseline:"PMDK" ~paper:Paper.fig12

let fig13 =
  speedup_figure
    ~title:"Figure 13: speedup over EDE (simulated hardware schemes)" ~cs:1.0
    ~baseline:"EDE" ~paper:Paper.fig13

(* ---------- Figure 14: write-traffic reduction ---------- *)

let fig14 =
  let baseline = "EDE" and paper = Paper.fig14 in
  let schemes = scheme_names paper in
  figure ~cs:1.0 (baseline :: schemes) @@ fun () ->
  header "Figure 14: reduction of PM write traffic over EDE (higher is better)";
  Printf.printf "%-14s" "";
  List.iter (fun s -> Printf.printf " %12s" s) schemes;
  print_newline ();
  let per_scheme = Hashtbl.create 8 in
  List.iter
    (fun wname ->
      row_label wname;
      let base = float_of_int (measure baseline wname).Run.pm_write_lines in
      List.iter
        (fun s ->
          let m = measure s wname in
          let red =
            (base -. float_of_int m.Run.pm_write_lines) /. base *. 100.0
          in
          Hashtbl.replace per_scheme s
            (red :: Option.value ~default:[] (Hashtbl.find_opt per_scheme s));
          Printf.printf " %11.1f%%" red)
        schemes;
      print_newline ())
    Paper.workloads;
  row_label "mean";
  List.iter
    (fun s ->
      let l = Hashtbl.find per_scheme s in
      Printf.printf " %11.1f%%"
        (List.fold_left ( +. ) 0.0 l /. float (List.length l)))
    schemes;
  print_newline ();
  row_label "paper mean";
  List.iter (fun (_, _, g) -> Printf.printf " %11.1f%%" g) paper;
  print_newline ()

(* ---------- Figure 15: memory-consumption sensitivity ---------- *)

(* Run [wname] under a SpecHPMT runtime built from [hw] and [hotness],
   keeping the runtime for its counters. *)
let run_spec_hw ?(hw = Hwconfig.default) ?(hotness = Spec_hw.Tlb_counters)
    ~name wname =
  let runtime = ref None in
  let m =
    Run.run_custom
      ~make:(fun heap ->
        let b, t =
          Spec_hw.create heap { Spec_hw.hw; data_persist = false; hotness }
        in
        runtime := Some t;
        b)
      ~name (workload wname) !scale
  in
  (m, Option.get !runtime)

let fig15 () =
  header
    "Figure 15: SpecHPMT speedup and traffic reduction vs memory budget \
     (epoch-size sweep)";
  Printf.printf "%-26s %12s %14s %16s %12s\n" "epoch / budget" "mem vs EDE"
    "avg speedup" "traffic reduct." "reclaims";
  let sweep =
    [
      (16 * 1024, 64 * 1024);
      (64 * 1024, 256 * 1024);
      (256 * 1024, 1024 * 1024);
      (1024 * 1024, 4 * 1024 * 1024);
      (2 * 1024 * 1024, 8 * 1024 * 1024);
    ]
  in
  List.iter
    (fun (epoch_bytes, budget) ->
      let speedups = ref [] and reducts = ref [] in
      let mem_over = ref 0.0 and reclaims = ref 0 in
      List.iter
        (fun wname ->
          let ede = measure "EDE" wname in
          let m, t =
            run_spec_hw
              ~hw:
                {
                  Hwconfig.default with
                  Hwconfig.epoch_max_bytes = epoch_bytes;
                  log_budget_bytes = budget;
                }
              ~name:"SpecHPMT-sweep" wname
          in
          speedups := (ede.Run.ns /. m.Run.ns) :: !speedups;
          reducts :=
            (float_of_int (ede.Run.pm_write_lines - m.Run.pm_write_lines)
            /. float_of_int ede.Run.pm_write_lines
            *. 100.0)
            :: !reducts;
          (* memory consumption: peak speculative log vs the EDE-run's
             persistent footprint *)
          mem_over :=
            !mem_over
            +. (float_of_int (Spec_hw.peak_log_bytes t)
               /. float_of_int (64 * ede.Run.pm_write_lines)
               *. 100.0);
          reclaims := !reclaims + Spec_hw.reclaims t)
        Paper.workloads;
      let n = float_of_int (List.length Paper.workloads) in
      Printf.printf "%10d KiB / %6d KiB %11.1f%% %13.2fx %15.1f%% %12d\n"
        (epoch_bytes / 1024) (budget / 1024)
        (!mem_over /. n)
        (geomean !speedups)
        (List.fold_left ( +. ) 0.0 !reducts /. n)
        !reclaims)
    sweep;
  Printf.printf
    "paper: 2.6%% extra memory -> 1.12x; 15%% -> 1.36x; 20%% -> 1.4x; small \
     epochs degrade vacation by up to 26%%\n"

(* ---------- Section 4 ablation: hash-table log ---------- *)

let hashlog =
  let seq = "SpecSPMT" and hash = "Spec-hashlog" in
  figure ~cs:sw_compute_scale [ seq; hash ] @@ fun () ->
  header "Section 4 ablation: sequential log vs hash-table log";
  Printf.printf "%-14s %14s %14s %10s\n" "" "SpecSPMT (ns)" "hashlog (ns)"
    "slowdown";
  let slows = ref [] in
  List.iter
    (fun wname ->
      let s = measure seq wname in
      let h = measure hash wname in
      let slow = h.Run.ns /. s.Run.ns in
      slows := slow :: !slows;
      Printf.printf "%-14s %14.0f %14.0f %9.2fx\n" wname s.Run.ns h.Run.ns slow)
    Paper.workloads;
  Printf.printf "%-14s %29s %9.2fx   (paper: %.1fx)\n" "geomean" ""
    (geomean !slows) Paper.hashlog_slowdown

(* ---------- Ablation: compute-intensity sensitivity ---------- *)

let ablation () =
  header
    "Ablation: overhead sensitivity to compute intensity (DESIGN.md; the \
     real-machine vs simulator gap)";
  Printf.printf "%-10s %14s %14s %14s\n" "compute x" "PMDK overhead"
    "SpecSPMT ovh." "Spec speedup";
  List.iter
    (fun k ->
      with_compute_scale k @@ fun () ->
      let saved = Hashtbl.copy cache in
      Hashtbl.reset cache;
      let w = "vacation-low" in
      let raw = (measure "raw" w).Run.ns in
      let pmdk = (measure "PMDK" w).Run.ns in
      let spec = (measure "SpecSPMT" w).Run.ns in
      Printf.printf "%-10.1f %13.0f%% %13.0f%% %13.2fx\n" k
        ((pmdk -. raw) /. raw *. 100.0)
        ((spec -. raw) /. raw *. 100.0)
        (pmdk /. spec);
      Hashtbl.reset cache;
      Hashtbl.iter (fun k v -> Hashtbl.replace cache k v) saved)
    [ 0.0; 1.0; 4.0; 16.0 ]

(* ---------- Design-choice sweeps (DESIGN.md ablations) ---------- *)

let sweeps () =
  header "Design-choice sweeps";
  (* 1: software log-block size — small blocks chain constantly, large
     ones waste reclamation granularity *)
  Printf.printf "\nlog block size (SpecSPMT, vacation-high):\n";
  Printf.printf "%-12s %12s %12s %10s\n" "block" "sim ms" "PM wlines"
    "log KiB";
  List.iter
    (fun block_bytes ->
      let m =
        Run.run_custom
          ~make:(fun heap ->
            create_scheme
              ~spec_params:
                { Spec_soft.default_params with Spec_soft.block_bytes }
              heap "SpecSPMT")
          ~name:"SpecSPMT-block" (workload "vacation-high") !scale
      in
      Printf.printf "%8d B   %12.3f %12d %10d\n" block_bytes
        (m.Run.ns /. 1e6) m.Run.pm_write_lines (m.Run.log_bytes / 1024))
    [ 512; 1024; 4096; 16384 ];
  (* 2: software reclamation threshold — the paper's 3x-memory cost
     against reclamation frequency *)
  Printf.printf "\nreclamation threshold (SpecSPMT, intruder):\n";
  Printf.printf "%-12s %12s %12s %12s\n" "threshold" "sim ms" "log KiB"
    "bg ms";
  List.iter
    (fun reclaim_threshold ->
      let m =
        Run.run_custom
          ~make:(fun heap ->
            create_scheme
              ~spec_params:
                {
                  Spec_soft.default_params with
                  Spec_soft.reclaim_bytes = reclaim_threshold;
                }
              heap "SpecSPMT")
          ~name:"SpecSPMT-reclaim" (workload "intruder") !scale
      in
      Printf.printf "%8d KiB %12.3f %12d %12.3f\n" (reclaim_threshold / 1024)
        (m.Run.ns /. 1e6) (m.Run.log_bytes / 1024) (m.Run.bg_ns /. 1e6))
    [ 64 * 1024; 256 * 1024; 1024 * 1024; 4 * 1024 * 1024 ];
  (* 3: hardware hot threshold — when does a page deserve a bulk copy *)
  Printf.printf "\nhot threshold (SpecHPMT, genome):\n";
  Printf.printf "%-10s %12s %12s %12s %12s\n" "threshold" "sim ms"
    "transitions" "hot writes" "PM wlines";
  List.iter
    (fun hot_threshold ->
      let m, t =
        run_spec_hw
          ~hw:{ Hwconfig.default with Hwconfig.hot_threshold }
          ~name:"SpecHPMT-hot" "genome"
      in
      Printf.printf "%-10d %12.3f %12d %12d %12d\n" hot_threshold
        (m.Run.ns /. 1e6) (Spec_hw.transitions t) (Spec_hw.hot_writes t)
        m.Run.pm_write_lines)
    [ 2; 4; 7; 15; 31 ]

(* ---------- Extension: software-offloaded hotness (Section 6) ---------- *)

let hotness () =
  header
    "Extension: TLB counters vs software-sampled hotness detection \
     (Section 6, Alternative Designs)";
  Printf.printf
    "(with transactional setup the working set is speculative before the \
     measured phase\n starts, so the detectors mostly agree — the cold-write \
     column shows how little\n detection work remains; the modes diverge on \
     cold-start access patterns)\n";
  Printf.printf "%-14s %-22s %12s %12s %12s %12s\n" "workload" "detector"
    "sim ms" "transitions" "hot writes" "cold writes";
  let detectors =
    [
      ("tlb-counters", Spec_hw.Tlb_counters);
      ("sampled/500", Spec_hw.Software_sampled { decay_period = 500 });
      ("sampled/5000", Spec_hw.Software_sampled { decay_period = 5000 });
      (* no decay: every page eventually looks hot — the over-eager
         extreme of software detection *)
      ("sampled/no-decay", Spec_hw.Software_sampled { decay_period = max_int });
    ]
  in
  let row wname label ns t =
    Printf.printf "%-14s %-22s %12.3f %12d %12d %12d\n" wname label
      (ns /. 1e6) (Spec_hw.transitions t) (Spec_hw.hot_writes t)
      (Spec_hw.cold_writes t)
  in
  List.iter
    (fun wname ->
      List.iter
        (fun (label, hotness) ->
          let m, t = run_spec_hw ~hotness ~name:label wname in
          row wname label m.Run.ns t)
        detectors)
    [ "genome"; "kmeans-high"; "vacation-high" ];
  (* a cold-start pattern with no setup coverage: a skewed working set
     re-visited with poor temporal locality, where the detectors differ *)
  Printf.printf "\nsynthetic cold-start (skewed revisits, no setup coverage):\n";
  List.iter
    (fun (label, hotness) ->
      let pm = Pmem.create ~seed:9 Pmem_config.default in
      let heap = Heap.create pm in
      let b, t =
        Spec_hw.create heap
          { Spec_hw.hw = Hwconfig.default; data_persist = false; hotness }
      in
      let region = Heap.alloc heap (512 * 4096) in
      let rand = Stdlib.Random.State.make [| 7 |] in
      let before = Stats.copy (Pmem.stats pm) in
      for r = 0 to 20_000 do
        (* one hot page in ten: revisited every ~200 writes, too sparse to
           survive TLB eviction but dense enough for persistent counters *)
        let page = Stdlib.Random.State.int rand 200 in
        let page = if page < 20 then page else 20 + (r mod 480) in
        b.Ctx.run_tx (fun ctx ->
            ctx.Ctx.write
              (region + (page * 4096) + (r mod 512 * 8))
              r)
      done;
      row "cold-start" label (Stats.diff before (Pmem.stats pm)).Stats.ns t)
    detectors

(* ---------- Extension: what would eADR buy? (Section 5.3.1) ---------- *)

let eadr () =
  header
    "Extension: persistent caches (eADR, Section 5.3.1) — overhead of each \
     scheme with and without";
  Printf.printf
    "(the paper argues eADR's cost limits adoption; SpecPMT gets most of \
     the benefit on ADR hardware)\n";
  Printf.printf "%-14s %14s %14s\n" "" "ADR overhead" "eADR overhead";
  let w = workload "vacation-high" in
  let measure_with ~eadr scheme =
    let pm =
      Pmem.create ~seed:1 { Pmem_config.default with Pmem_config.eadr }
    in
    let heap = Heap.create pm in
    let backend = create_scheme heap scheme in
    let prepared = w.Workload.prepare !scale heap backend in
    let before = Stats.copy (Pmem.stats pm) in
    prepared.Workload.work ();
    backend.Ctx.drain ();
    (Stats.diff before (Pmem.stats pm)).Stats.ns
  in
  let raw_adr = measure_with ~eadr:false "raw" in
  let raw_eadr = measure_with ~eadr:true "raw" in
  List.iter
    (fun scheme ->
      let adr = measure_with ~eadr:false scheme in
      let e = measure_with ~eadr:true scheme in
      Printf.printf "%-14s %13.0f%% %13.0f%%\n" scheme
        ((adr -. raw_adr) /. raw_adr *. 100.0)
        ((e -. raw_eadr) /. raw_eadr *. 100.0))
    [ "PMDK"; "SpecSPMT"; "EDE"; "SpecHPMT"; "no-log" ]

(* ---------- Extension: recovery latency vs log size ---------- *)

let recovery () =
  header
    "Extension: recovery latency vs speculative-log size (not in the \
     paper; motivates timely reclamation)";
  Printf.printf "%-10s %-14s %12s %12s %14s\n" "txs" "reclamation"
    "log KiB" "recovery ms" "full run ms";
  List.iter
    (fun (txs, reclaim) ->
      let pm = Pmem.create ~seed:5 Pmem_config.default in
      let heap = Heap.create pm in
      let backend =
        create_scheme
          ~spec_params:
            {
              Spec_soft.default_params with
              Spec_soft.reclaim_bytes =
                (if reclaim then 256 * 1024 else max_int);
            }
          heap "SpecSPMT"
      in
      let base = Heap.alloc heap (64 * 8) in
      for r = 0 to txs - 1 do
        backend.Ctx.run_tx (fun ctx ->
            for i = 0 to 7 do
              ctx.Ctx.write (base + (((r + i) mod 64) * 8)) (r + i)
            done)
      done;
      let run_ns = (Pmem.stats pm).Stats.ns in
      let log_kib = backend.Ctx.log_footprint () / 1024 in
      Pmem.crash pm;
      let before = Stats.copy (Pmem.stats pm) in
      backend.Ctx.recover ();
      let d = Stats.diff before (Pmem.stats pm) in
      Printf.printf "%-10d %-14s %12d %12.3f %14.3f\n" txs
        (if reclaim then "256 KiB cap" else "off")
        log_kib (d.Stats.ns /. 1e6) (run_ns /. 1e6))
    [
      (1_000, false);
      (4_000, false);
      (16_000, false);
      (16_000, true);
      (64_000, true);
    ]

(* ---------- Extension: coalescing recovery ---------- *)

let mode_name = function
  | Spec_soft.Coalesce -> "coalesce"
  | Spec_soft.Replay -> "replay"

(* One crash-recovery measurement on a dedicated pool: [cells] 8-byte
   cells are each overwritten ~[rounds] times (8 cells per transaction,
   reclamation off so the whole overwrite history stays in the log), the
   device crashes, and recovery runs in [mode].  Live cells sit one per
   cache line (the scattered-heap-object layout real applications
   recover, not a packed array), so the apply phase pays one line drain
   per live cell.  The lines are adjacent, so coalesced recovery's
   line-ordered write-back drains them as one sequential stream. *)
let recovery_case ~cells ~rounds ~mode =
  let pm = Pmem.create ~seed:7 Pmem_config.default in
  let heap = Heap.create pm in
  let backend =
    create_scheme
      ~spec_params:
        {
          Spec_soft.default_params with
          Spec_soft.reclaim_bytes = max_int;
          Spec_soft.recovery = mode;
        }
      heap "SpecSPMT"
  in
  let stride = 64 in
  let base = Heap.alloc heap (cells * stride) in
  let per_tx = 8 in
  let txs = cells * rounds / per_tx in
  for r = 0 to txs - 1 do
    backend.Ctx.run_tx (fun ctx ->
        for i = 0 to per_tx - 1 do
          let c = ((r * per_tx) + i) mod cells in
          ctx.Ctx.write (base + (c * stride)) ((r * per_tx) + i)
        done)
  done;
  let log_kib = backend.Ctx.log_footprint () / 1024 in
  Pmem.crash pm;
  Obs.Metrics.reset_all ();
  let before = Stats.copy (Pmem.stats pm) in
  backend.Ctx.recover ();
  let d = Stats.diff before (Pmem.stats pm) in
  let counter n = Obs.Metrics.counter_value (Obs.Metrics.counter n) in
  ( log_kib,
    d.Stats.ns,
    counter "recover.data_writes",
    counter "recover.entries_scanned" )

let sweep_row ~experiment ~mode ~cells ~rounds
    (log_kib, ns, writes, scanned) =
  record_in "recovery_sweep"
    (Json.Obj
       [
         ("experiment", Json.Str experiment);
         ("mode", Json.Str (mode_name mode));
         ("cells", Json.Int cells);
         ("rounds", Json.Int rounds);
         ("log_kib", Json.Int log_kib);
         ("recovery_ns", Json.Float ns);
         ("data_writes", Json.Int writes);
         ("entries_scanned", Json.Int scanned);
       ])

let recovery_sweep () =
  header
    "Extension: coalescing recovery — O(live set), not O(log) \
     (DESIGN.md, \"Recovery & reclamation performance model\")";
  (* 1: stale-overwrite sweep, fixed live set.  The log grows 10x; the
     live set does not.  Replay recovery pays per log entry; coalesced
     recovery writes each live cell once, so its data writes stay at the
     live set and only its scan grows with the log (the shape criterion
     printed at the end). *)
  let cells = 256 in
  Printf.printf
    "\nstale-overwrite sweep (%d live cells; reclamation off):\n" cells;
  Printf.printf "%-8s %10s | %12s %12s | %12s %12s\n" "rounds" "log KiB"
    "replay ms" "writes" "coalesce ms" "writes";
  let stale_rounds = [ 1; 2; 5; 10 ] in
  let shape =
    List.map
      (fun rounds ->
        let measure mode =
          let r = recovery_case ~cells ~rounds ~mode in
          sweep_row ~experiment:"stale-sweep" ~mode ~cells ~rounds r;
          r
        in
        let _, rns, rwrites, _ = measure Spec_soft.Replay in
        let kib, cns, cwrites, _ = measure Spec_soft.Coalesce in
        Printf.printf "%-8d %10d | %12.3f %12d | %12.3f %12d\n" rounds kib
          (rns /. 1e6) rwrites (cns /. 1e6) cwrites;
        (rns, cns, rwrites, cwrites))
      stale_rounds
  in
  let first = List.hd shape and last = List.nth shape (List.length shape - 1) in
  let ns1, cns1, rw1, _ = first and ns10, cns10, rw10, cw10 = last in
  Printf.printf
    "shape: 10x more stale log -> replay writes %dx more cells (%d -> %d), \
     coalesced stays at %d;\n       recovery time: replay %.2fx, coalesced \
     %.2fx (data writes fixed at the live set; only the log scan grows)\n"
    (rw10 / max 1 rw1) rw1 rw10 cw10 (ns10 /. ns1) (cns10 /. cns1);
  (* 2: live-set sweep, fixed overwrite factor — coalesced recovery cost
     should scale with the live set, its only remaining driver *)
  Printf.printf "\nlive-set sweep (8 overwrites per cell, coalesced):\n";
  Printf.printf "%-8s %10s %12s %12s\n" "cells" "log KiB" "recovery ms"
    "writes";
  List.iter
    (fun cells ->
      let rounds = 8 in
      let ((kib, ns, writes, _) as r) =
        recovery_case ~cells ~rounds ~mode:Spec_soft.Coalesce
      in
      sweep_row ~experiment:"live-sweep" ~mode:Spec_soft.Coalesce ~cells
        ~rounds r;
      Printf.printf "%-8d %10d %12.3f %12d\n" cells kib (ns /. 1e6) writes)
    [ 64; 256; 1024 ]


(* ---------- Extension: service layer (group commit) ---------- *)

(* Batch-size sweep over the sharded KV service: the same closed loop of
   48 clients over the same stream at every batch_max, so the only thing
   that moves is how many transactions share one seal fence.  Fences per
   write must fall monotonically towards 1/batch_max — the group-commit
   amortization of SpecPMT's last ordering point.  Each JSON row is one
   Openloop report (additive `svc` top-level key). *)
let svc () =
  header
    "Extension: sharded KV service — group commit amortizes the per-commit fence (lib/svc)";
  let shards = 4 and depth = 64 and keys = 2048 and clients = 48 in
  let ops = by_scale ~quick:2_000 ~small:8_000 ~full:24_000 in
  (* YCSB-A: 50% reads *)
  let stream =
    Svc.Scenario.op_stream
      (Svc.Scenario.spec ~theta:0.9 Svc.Scenario.A)
      ~ops ~keys ~seed:42
  in
  let run_one batch_max =
    fst
      (Cli.serve ~seed:42
         { Svc.Service.shards; batch_max; depth; keys }
         { Svc.Openloop.rate = 0.0; arrivals = Closed { clients }; seed = 42 }
         stream)
  in
  Printf.printf
    "\nbatch-size sweep (%d shards, %d clients, depth %d, %d ops, 50%% \
     reads, zipf 0.9):\n"
    shards clients depth ops;
  Printf.printf "%-6s %14s %10s %10s %10s %10s %10s\n" "batch" "fences/write"
    "p50 ns" "p90 ns" "p99 ns" "ops/ms" "rejected";
  let open Svc.Openloop in
  let fences_per_write r = float_of_int r.fences /. float_of_int (max 1 r.writes) in
  (* each sweep point is its own service on its own device — fan them
     over the pool, then print and record in batch order *)
  let batches = [ 1; 2; 4; 8; 16 ] in
  let reports = Par.map_list ~jobs:!jobs run_one batches in
  List.iter2
    (fun batch_max r ->
      record_in "svc" (Svc.Openloop.report_to_json r);
      let q p = Obs.Hist.quantile r.latency p in
      Printf.printf "%-6d %14.3f %10d %10d %10d %10.1f %10d\n" batch_max
        (fences_per_write r) (q 0.5) (q 0.9) (q 0.99)
        (r.goodput_ops_per_sec /. 1e3)
        r.rejects)
    batches reports;
  let fpw = List.map fences_per_write reports in
  let monotone =
    List.for_all2 (fun a b -> b <= a +. 1e-9) fpw (List.tl fpw @ [ 0.0 ])
  in
  Printf.printf
    "shape: fences/write %s monotonically (%.3f -> %.3f over 1 -> 16; \
     ideal 1/K)\n"
    (if monotone then "falls" else "DOES NOT fall")
    (List.hd fpw)
    (List.nth fpw (List.length fpw - 1));
  (* per-shard view at one operating point *)
  let r8 = List.nth reports 3 in
  Printf.printf "\nper-shard (batch_max 8):\n";
  Printf.printf "%-6s %10s %10s %10s %10s %12s\n" "shard" "ops" "ops/ms"
    "p99 ns" "rejected" "max inflight";
  List.iter
    (fun (s : Svc.Service.shard_stats) ->
      Printf.printf "%-6d %10d %10.1f %10d %10d %12d\n" s.s_id s.s_ops
        (float_of_int s.s_ops /. (r8.span_ns /. 1e6))
        (Obs.Hist.quantile s.s_latency 0.99)
        s.s_rejected s.s_max_inflight)
    r8.shards

(* Domain sweep over the shard-per-domain data plane: the same
   deterministic op stream at 1, 2 and 4 worker domains.  The invariant
   section of each report (ops, fences, checksums) must not move; the
   modelled makespan — the slowest per-domain device clock — must
   shrink as shards spread over more domains.  Wall clock is reported
   too but only meaningful on a multi-core host; the runs stay serial
   (each already spawns its own domains).  Additive `svc_scale` JSON
   key, one Dataplane report per point. *)
let svc_scale () =
  header
    "Extension: shard-per-domain data plane — domain sweep (lib/svc/dataplane)";
  let shards = 8 and batch_max = 8 and depth = 64 and keys = 2048 in
  let ops = by_scale ~quick:2_000 ~small:6_000 ~full:20_000 in
  (* write-heavy: the log/fence path is what domains parallelize *)
  let stream =
    Svc.Scenario.op_stream
      { (Svc.Scenario.spec ~theta:0.9 Svc.Scenario.A) with read = 0.1; update = 0.9 }
      ~ops ~keys ~seed:42
  in
  let domain_counts =
    List.filter (fun d -> d <= shards) [ 1; 2; 4 ]
  in
  Printf.printf
    "\ndomain sweep (%d shards, batch_max %d, depth %d, %d ops, 90%% \
     writes, zipf 0.9):\n"
    shards batch_max depth ops;
  Printf.printf "%-8s %12s %14s %12s %12s %10s\n" "domains" "wall ops/s"
    "modelled ms" "speedup" "p99 wall ns" "stalls";
  let results =
    List.map
      (fun domains ->
        let cfg =
          Cli.dataplane_config ~shards ~domains ~batch:batch_max ~depth ~keys
        in
        let plane = Svc.Dataplane.create (Cli.svc_heap ~seed:42) cfg in
        let r = Svc.Dataplane.run plane stream in
        record_in "svc_scale" (Svc.Dataplane.report_to_json cfg r);
        (domains, r))
      domain_counts
  in
  let base_ns =
    match results with
    | (_, r1) :: _ -> r1.Svc.Dataplane.sim_ns_max
    | [] -> 1.0
  in
  List.iter
    (fun (domains, r) ->
      let open Svc.Dataplane in
      Printf.printf "%-8d %12.0f %14.3f %11.2fx %12d %10d\n" domains
        r.wall_ops_per_sec (r.sim_ns_max /. 1e6)
        (base_ns /. r.sim_ns_max)
        (Obs.Hist.quantile r.wall_latency 0.99)
        r.router_stalls)
    results;
  (* cross-check: the invariant half of every report must be identical *)
  let fingerprint (_, r) =
    let open Svc.Dataplane in
    (r.total_ops, r.reads_sum, r.table_crc, r.fences, r.batches,
     r.sealed_records)
  in
  let fp0 = fingerprint (List.hd results) in
  let same = List.for_all (fun p -> fingerprint p = fp0) results in
  Printf.printf
    "shape: invariant report %s across domain counts; modelled makespan \
     %.2fx at %d domains\n"
    (if same then "identical" else "DIVERGES")
    (match List.rev results with
    | (_, last) :: _ -> base_ns /. last.Svc.Dataplane.sim_ns_max
    | [] -> 1.0)
    (match List.rev results with (d, _) :: _ -> d | [] -> 1)

(* ---------- Extension: open-loop YCSB suite ---------- *)

(* Offered load vs goodput on the sharded KV service: a saturation probe
   measures capacity, a rate sweep above and below it shows the knee
   (goodput pins at capacity while offered load rises and admission
   sheds appear), and the standard YCSB mixes run at half capacity.
   Every Openloop report is a pure function of (stream, config), so the
   sweep fans out over the domain pool and the JSON `ycsb` key's
   invariant section is byte-identical for any --jobs.  Latency is
   CO-safe: measured from each op's scheduled arrival, so backlogged
   ops keep accruing (see lib/svc/openloop.mli). *)
let ycsb () =
  header
    "Extension: open-loop YCSB — offered load vs goodput, the saturation \
     knee, and recovery under load (lib/svc/openloop)";
  let shards = 4 and batch_max = 8 and depth = 32 and keys = 1024 in
  let ops = by_scale ~quick:2_000 ~small:6_000 ~full:16_000 in
  let seed = 42 in
  let cfg = { Svc.Service.shards; batch_max; depth; keys } in
  let dp_config domains =
    Cli.dataplane_config ~shards ~domains ~batch:batch_max ~depth ~keys
  in
  let stream_of mix =
    Svc.Scenario.op_stream (Svc.Scenario.spec mix) ~ops ~keys ~seed
  in
  let run_open ~rate stream =
    fst
      (Cli.serve ~seed cfg
         { Svc.Openloop.rate; arrivals = Svc.Openloop.Poisson; seed = 7 }
         stream)
  in
  let open Svc.Openloop in
  let q r p = Obs.Hist.quantile r.latency p in
  (* 1: capacity — the saturation probe on mix A *)
  let a_stream = stream_of Svc.Scenario.A in
  let cap_r = run_open ~rate:0.0 a_stream in
  let cap = cap_r.goodput_ops_per_sec in
  Printf.printf
    "\nmeasured capacity (saturation probe, mix A, %d ops): %.0f ops/s\n" ops
    cap;
  (* 2: rate sweep around the knee — each point its own service *)
  let mults = [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let sweep =
    Par.map_list ~jobs:!jobs (fun m -> run_open ~rate:(m *. cap) a_stream) mults
  in
  Printf.printf
    "\nrate sweep (mix A, %d shards x depth %d, batch_max %d):\n" shards
    depth batch_max;
  Printf.printf "%-8s %12s %12s %8s %8s %10s %10s\n" "x cap" "offered/s"
    "goodput/s" "rejects" "backlog" "p50 ns" "p99 ns";
  List.iter2
    (fun m r ->
      Printf.printf "%-8.2f %12.0f %12.0f %8d %8d %10d %10d\n" m
        r.offered_ops_per_sec r.goodput_ops_per_sec r.rejects r.max_backlog
        (q r 0.5) (q r 0.99))
    mults sweep;
  let over = List.nth sweep (List.length sweep - 1) in
  Printf.printf
    "shape: past the knee goodput %s at capacity (%.0f <= 1.1 x %.0f) and \
     admission %s (%d rejects)\n"
    (if over.goodput_ops_per_sec <= 1.1 *. cap then "pins" else "DOES NOT pin")
    over.goodput_ops_per_sec cap
    (if over.rejects > 0 then "sheds" else "DOES NOT shed")
    over.rejects;
  (* 3: every YCSB mix at half capacity *)
  let mix_reports =
    Par.map_list ~jobs:!jobs
      (fun mix -> run_open ~rate:(0.5 *. cap) (stream_of mix))
      Svc.Scenario.all_mixes
  in
  Printf.printf "\nmixes at 0.5x capacity (%.0f ops/s offered):\n"
    (0.5 *. cap);
  Printf.printf "%-4s %7s %7s %6s %6s %12s %10s %10s %8s\n" "mix" "reads"
    "writes" "rmws" "scans" "goodput/s" "p99 ns" "fences/op" "rejects";
  List.iter2
    (fun mix r ->
      Printf.printf "%-4s %7d %7d %6d %6d %12.0f %10d %10.3f %8d\n"
        (Svc.Scenario.mix_to_string mix)
        r.reads r.writes r.rmws r.scans r.goodput_ops_per_sec (q r 0.99)
        r.fences_per_op r.rejects)
    Svc.Scenario.all_mixes mix_reports;
  (* 4: the data plane serves scenario streams with an invariant report
     independent of the domain count — mix F (rmw under group commit)
     and mix E (ordered scans over the per-shard Pbtree index) *)
  let dp_fingerprint mix domains =
    let plane =
      Svc.Dataplane.create (Cli.svc_heap ~seed:21) (dp_config domains)
    in
    let r = Svc.Dataplane.run plane (stream_of mix) in
    let open Svc.Dataplane in
    ( r.total_ops,
      (r.reads, r.writes, r.rmws, r.scans),
      r.reads_sum,
      r.table_crc,
      r.fences,
      r.sealed_records )
  in
  let dp_same =
    List.for_all
      (fun mix -> dp_fingerprint mix 1 = dp_fingerprint mix 2)
      [ Svc.Scenario.F; Svc.Scenario.E ]
  in
  Printf.printf
    "\ndata plane (mixes F, E): invariant reports %s across 1 vs 2 domains\n"
    (if dp_same then "identical" else "DIVERGE");
  (* 5: recovery under load — crash the plane mid-traffic on a read/write
     mix, audit acked-durable/unacked-invisible, resume on the backlog *)
  let rv =
    Svc.Openloop.recovery_under_load (Cli.svc_heap ~seed:21) (dp_config 2)
      (stream_of Svc.Scenario.B) ~fuse_batches:20
  in
  Printf.printf "\n%s" (Format.asprintf "%a" Svc.Openloop.pp_recovery rv);
  (* 6: shadow mirror on/off — mix E (scan-heavy) through the saturation
     probe, same stream both ways.  The probe's batch composition is a
     pure function of the stream, so the acked count, the read checksum
     and the fence count must be byte-identical; only the device clock —
     which with the mirror no longer pays descent reads — and the host
     clock may move.  This probe builds its own service: it reads the
     device's loads around the run. *)
  let e_stream = stream_of Svc.Scenario.E in
  let run_e shadow =
    Obs.Metrics.reset_all ();
    let heap = Cli.svc_heap ~seed in
    let pm = Heap.pmem heap in
    let svc = Svc.Service.create ~shadow heap cfg in
    let loads0 = (Pmem.stats pm).Stats.loads in
    let w0 = Unix.gettimeofday () in
    let r =
      Svc.Openloop.run svc
        { Svc.Openloop.rate = 0.0; arrivals = Svc.Openloop.Poisson; seed = 7 }
        e_stream
    in
    (r, (Pmem.stats pm).Stats.loads - loads0, (Unix.gettimeofday () -. w0) *. 1e9)
  in
  let e_off, l_off, wall_off = run_e false in
  let e_on, l_on, wall_on = run_e true in
  let e_same =
    e_off.ops = e_on.ops && e_off.reads_sum = e_on.reads_sum
    && e_off.fences = e_on.fences
  in
  let per v r = v /. float_of_int r.ops in
  Printf.printf
    "\nmix E, shadow off vs on (saturation probe, %d ops): op counts, \
     reads_sum and fences %s\n" ops
    (if e_same then "identical" else "DIVERGE");
  Printf.printf "  off: %8.1f sim ns/op  %8.0f host ns/op  %9d loads\n"
    (per e_off.span_ns e_off) (per wall_off e_off) l_off;
  Printf.printf "  on:  %8.1f sim ns/op  %8.0f host ns/op  %9d loads\n"
    (per e_on.span_ns e_on) (per wall_on e_on) l_on;
  (* the section files every run's own report under the run's name *)
  let shadow_run r loads wall =
    Obs.Sections.add
      ~modelled:
        [
          ("ns_per_op", Json.Float (per r.span_ns r));
          ("loads", Json.Int loads);
        ]
      ~measured:[ ("wall_ns_per_op", Json.Float (per wall r)) ]
      (report_to_json r)
  in
  let invariant fields =
    Obs.Sections.v ~invariant:fields ~modelled:[] ~measured:[]
  in
  let named label xs runs =
    Obs.Sections.group
      (List.map2 (fun x r -> (label x, report_to_json r)) xs runs)
  in
  record_in "ycsb"
    (Obs.Sections.group
       [
         ( "config",
           invariant
             [
               ("shards", Json.Int shards);
               ("batch_max", Json.Int batch_max);
               ("depth", Json.Int depth);
               ("keys", Json.Int keys);
               ("ops", Json.Int ops);
               ("seed", Json.Int seed);
             ] );
         ("capacity_probe", report_to_json cap_r);
         ("rate_sweep", named (Printf.sprintf "%gx") mults sweep);
         ( "mixes",
           named Svc.Scenario.mix_to_string Svc.Scenario.all_mixes mix_reports
         );
         ( "dataplane_domains",
           invariant [ ("identical_1_vs_2", Json.Bool dp_same) ] );
         ("recovery", recovery_to_json rv);
         ( "shadow_mix_e",
           Obs.Sections.add
             ~invariant:[ ("identical", Json.Bool e_same) ]
             (Obs.Sections.group
                [
                  ("off", shadow_run e_off l_off wall_off);
                  ("on", shadow_run e_on l_on wall_on);
                ]) );
       ])

(* ---------- scan: ordered-index range scans (Pbtree) ---------- *)

let scan () =
  header
    "Extension: ordered-index scans — Pbtree range walk vs the flat \
     point-table walk it replaced (lib/pstruct/pbtree)";
  let n = by_scale ~quick:2_048 ~small:4_096 ~full:8_192 in
  let pm = Pmem.create ~seed:11 Pmem_config.default in
  let heap = Heap.create pm in
  let b = create_scheme heap "SpecSPMT" in
  let base = Heap.alloc heap (n * 8) in
  let tree = b.Ctx.run_tx (fun ctx -> Pstruct.Pbtree.create ctx ()) in
  (* populate key i -> its cell address, 64 inserts per transaction *)
  let k = ref 0 in
  while !k < n do
    let lo = !k and hi = min n (!k + 64) in
    b.Ctx.run_tx (fun ctx ->
        for i = lo to hi - 1 do
          ctx.Ctx.write (base + (i * 8)) (i * 31);
          Pstruct.Pbtree.insert ctx tree i (base + (i * 8))
        done);
    k := hi
  done;
  b.Ctx.drain ();
  let height, (inodes, leaves) =
    let ctx = Ctx.peek_ctx pm in
    (Pstruct.Pbtree.height ctx tree, Pstruct.Pbtree.node_count ctx tree)
  in
  Printf.printf
    "tree: %d keys, order %d, height %d, %d internal + %d leaf nodes\n" n
    (Pstruct.Pbtree.order tree) height inodes leaves;
  let rounds = 256 in
  let sim f =
    let t0 = (Pmem.stats pm).Stats.ns in
    f ();
    (Pmem.stats pm).Stats.ns -. t0
  in
  (* each scan is one read-only transaction from a staggered anchor, as
     in the service's Scan path; wall clock brackets the same loop so
     the host cost of the descent machinery is measured alongside the
     device model *)
  let tree_scan len =
    let entries = ref 0 in
    let w0 = Unix.gettimeofday () in
    let ns =
      sim (fun () ->
          for r = 0 to rounds - 1 do
            let anchor = r * 131 mod n in
            b.Ctx.run_tx (fun ctx ->
                let left = ref len in
                Pstruct.Pbtree.iter_from ctx tree ~lo:anchor (fun _ addr ->
                    ignore (ctx.Ctx.read addr);
                    incr entries;
                    decr left;
                    !left > 0))
          done)
    in
    let wall = (Unix.gettimeofday () -. w0) *. 1e9 in
    (ns, wall, !entries)
  in
  (* the retired stub's access pattern: an ascending walk of the flat
     cell table, no index to consult — the lower bound a real ordered
     index has to approach *)
  let point_scan len =
    let entries = ref 0 in
    let ns =
      sim (fun () ->
          for r = 0 to rounds - 1 do
            let anchor = r * 131 mod n in
            b.Ctx.run_tx (fun ctx ->
                let stop = min n (anchor + len) in
                for i = anchor to stop - 1 do
                  ignore (ctx.Ctx.read (base + (i * 8)));
                  incr entries
                done)
          done)
    in
    (ns, !entries)
  in
  (* point lookups: device-model loads and host wall per read-only
     [find] — the descent-cost probe the CI read budget audits *)
  let find_probe () =
    let probes = 16384 in
    (* warm the host caches so the wall number is the steady state *)
    for r = 0 to 511 do
      b.Ctx.run_tx (fun ctx ->
          ignore (Pstruct.Pbtree.find ctx tree (r * 977 mod n)))
    done;
    let l0 = (Pmem.stats pm).Stats.loads in
    let w0 = Unix.gettimeofday () in
    for r = 0 to probes - 1 do
      let key = r * 977 mod n in
      b.Ctx.run_tx (fun ctx -> ignore (Pstruct.Pbtree.find ctx tree key))
    done;
    let wall = (Unix.gettimeofday () -. w0) *. 1e9 in
    let loads = (Pmem.stats pm).Stats.loads - l0 in
    (float_of_int loads /. float_of_int probes, wall /. float_of_int probes)
  in
  let lens = [ 1; 4; 16; 64 ] in
  (* the unmirrored tree first *)
  let off = List.map (fun len -> (len, tree_scan len, point_scan len)) lens in
  let off_loads, off_find_wall = find_probe () in
  (* attach the DRAM mirror (one unmetered peek pass) and re-measure the
     same tree: descents now cost hashtable probes and binary searches
     instead of device reads *)
  Pstruct.Pbtree.attach_shadow (Ctx.peek_ctx pm) tree;
  let on = List.map tree_scan lens in
  let on_loads, on_find_wall = find_probe () in
  let sh_hits, sh_misses, sh_rebuild_ns =
    match Pstruct.Pbtree.shadow tree with
    | Some sh -> Pstruct.Shadow.totals sh
    | None -> (0, 0, 0)
  in
  Printf.printf "\n%-6s %9s %14s %15s %7s %15s %7s\n" "len" "entries"
    "tree ns/entry" "point ns/entry" "ratio" "shadow ns/entry" "off/on";
  let per_len =
    List.map2
      (fun (len, (tns, twall, te), (pns, pe)) (ons, owall, oe) ->
        let per v e = v /. float_of_int (max 1 e) in
        let tpe = per tns te and ppe = per pns pe and ope = per ons oe in
        Printf.printf "%-6d %9d %14.1f %15.1f %7.2f %15.1f %7.2f\n" len te tpe
          ppe (tpe /. ppe) ope (tpe /. ope);
        ( Printf.sprintf "len_%d" len,
          Obs.Sections.v
            ~invariant:
              [
                ("len", Json.Int len);
                ("rounds", Json.Int rounds);
                ("entries", Json.Int te);
              ]
            ~modelled:
              [
                ("tree_ns_per_entry", Json.Float tpe);
                ("point_ns_per_entry", Json.Float ppe);
                ("shadow_tree_ns_per_entry", Json.Float ope);
              ]
            ~measured:
              [
                ("tree_wall_ns_per_entry", Json.Float (per twall te));
                ("shadow_tree_wall_ns_per_entry", Json.Float (per owall oe));
              ] ))
      off on
  in
  Printf.printf
    "point lookup (find): %.1f device loads/op off -> %.1f on; host %.0f \
     ns/op off -> %.0f on\n"
    off_loads on_loads off_find_wall on_find_wall;
  Printf.printf "shadow: %d hits, %d misses, rebuild %.3f ms\n" sh_hits
    sh_misses
    (float_of_int sh_rebuild_ns /. 1e6);
  record_in "scan"
    (Obs.Sections.add
       ~invariant:
         [
           ("keys", Json.Int n);
           ("order", Json.Int (Pstruct.Pbtree.order tree));
           ("height", Json.Int height);
           ("internal_nodes", Json.Int inodes);
           ("leaf_nodes", Json.Int leaves);
           ("shadow_hits", Json.Int sh_hits);
           ("shadow_misses", Json.Int sh_misses);
         ]
       ~modelled:
         [
           ("find_loads_per_lookup_off", Json.Float off_loads);
           ("find_loads_per_lookup_on", Json.Float on_loads);
         ]
       ~measured:
         [
           ("find_wall_ns_off", Json.Float off_find_wall);
           ("find_wall_ns_on", Json.Float on_find_wall);
           ("shadow_rebuild_ns", Json.Int sh_rebuild_ns);
         ]
       (Obs.Sections.group per_len));
  Printf.printf
    "shape: the B-link walk pays its root-to-leaf descent once per scan, \
     so ns/entry falls toward the flat walk as the window grows; the \
     mirror removes the descent's device reads entirely\n"

(* ---------- the experiments ---------- *)

(* Every experiment, in run order: its name, the (scheme x workload x
   multiplier) grid that [--jobs] prewarms before it, and its body.  The
   experiments off the measurement cache run their own configurations
   and prewarm nothing. *)
let experiments =
  let solo run = ([], run) in
  [
    ("table1", solo table1);
    ("table2", table2);
    ("table3", solo table3);
    ("fig1", fig1);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", solo fig15);
    ("hashlog", hashlog);
    ("ablation", solo ablation);
    ("sweeps", solo sweeps);
    ("recovery", solo recovery);
    ("recovery-sweep", solo recovery_sweep);
    ("svc", solo svc);
    ("svc-scale", solo svc_scale);
    ("ycsb", solo ycsb);
    ("scan", solo scan);
    ("eadr", solo eadr);
    ("hotness", solo hotness);
  ]

let cmd =
  let open Cmdliner in
  let names_arg =
    let doc = "Experiments to run, in the given order; none or $(b,all) runs every one." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run names (scale_name, sc) j json =
    let known = List.map fst experiments in
    let selected = match names with [] | [ "all" ] -> known | l -> l in
    List.iter
      (fun name ->
        if not (List.mem name known) then
          Cli.fail "specpmt_run: unknown experiment %S (known: %s)@." name
            (String.concat ", " known))
      selected;
    scale := sc;
    jobs := j;
    recording := json <> None;
    Printf.printf "SpecPMT evaluation harness (scale: %s)\n" scale_name;
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun name ->
        let grid, run = List.assoc name experiments in
        prewarm grid;
        run ())
      selected;
    let wall_s = Unix.gettimeofday () -. t0 in
    Option.iter (write_json_report ~scale_name ~wall_s) json
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's tables and figures and the extension \
          experiments")
    Term.(const run $ names_arg $ Cli.scale_arg $ Cli.jobs_arg $ Cli.json_arg)
