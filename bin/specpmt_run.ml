(* specpmt_run — the one command-line front end of the repository: run
   any workload under any crash-consistency scheme, audit recovery, drive
   the sharded service, and regenerate the paper's evaluation.

     dune exec bin/specpmt_run.exe -- list
     dune exec bin/specpmt_run.exe -- run --workload genome --scheme SpecSPMT
     dune exec bin/specpmt_run.exe -- crash --workload intruder --scheme SpecSPMT
     dune exec bin/specpmt_run.exe -- explore --scheme SpecSPMT --budget 2000
     dune exec bin/specpmt_run.exe -- bench --scale quick all

   `list` enumerates schemes and workloads; `run` measures one workload x
   scheme pair and `compare` one workload under every scheme; `crash`
   injects a crash mid-run, recovers, and audits the final state against
   an uninterrupted run; `fuzz` is randomized crash-recovery torture;
   `explore` walks the crash-state space of a small transactional
   workload deterministically (see Specpmt.Crashmc); `svc-bench` and
   `ycsb` drive the sharded KV service; `bench` regenerates the paper's
   tables and figures (bench.ml).  The flags the commands share, and the
   usage-error convention (one stderr line, exit 2, before any work),
   live in cli.ml. *)

open Cmdliner
open Specpmt
open Cli

let scheme_arg = scheme_term scheme_names

(* crash, fuzz and explore audit recovery: a scheme that cannot recover
   is a usage error *)
let recoverable_term = scheme_term ~what:"unknown or non-recoverable scheme"

let workload_arg =
  let doc = "STAMP workload name (see `list`)." in
  Arg.(value & opt string "genome" & info [ "w"; "workload" ] ~doc)

(* the numeric flags svc-bench and ycsb share; defaults differ per command *)
let shards_arg =
  int_arg ~hi:Spec_mt.max_threads ~default:4 "shards"
    (Printf.sprintf "Service shards (1..%d)." Spec_mt.max_threads)

let depth_arg ~default =
  int_arg ~default "depth" "Per-shard admission (inflight) bound."

let keys_arg ~default = int_arg ~default "keys" "KV table size."

let get_workload name =
  match Workload.find name with
  | Some w -> w
  | None -> fail "specpmt_run: unknown workload %S (see `list`)@." name

let list_cmd =
  let run () =
    Fmt.pr "schemes:@.";
    List.iter (fun s -> Fmt.pr "  %s@." s) scheme_names;
    Fmt.pr "workloads:@.";
    List.iter
      (fun w -> Fmt.pr "  %-14s %s@." w.Workload.name w.Workload.description)
      Workload.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List schemes and workloads")
    Term.(const run $ const ())

let print_measurement (m : Run.measurement) =
  Fmt.pr "workload     %s@." m.Run.workload;
  Fmt.pr "scheme       %s@." m.Run.scheme;
  Fmt.pr "txs          %d (%d updates, %.1f B/tx write set)@." m.Run.txs
    m.Run.updates m.Run.avg_tx_bytes;
  Fmt.pr "time         %.3f ms simulated (+%.3f ms background core)@."
    (m.Run.ns /. 1e6) (m.Run.bg_ns /. 1e6);
  Fmt.pr "persistence  %d fences, %d flushes@." m.Run.fences m.Run.clwbs;
  Fmt.pr "traffic      %d PM lines written, %d read@." m.Run.pm_write_lines
    m.Run.pm_read_lines;
  Fmt.pr "log          %d KiB resident@." (m.Run.log_bytes / 1024);
  Fmt.pr "checksum     %x@." m.Run.checksum

(* the report of `run` and `compare`: the bench report's layout *)
let run_report ~scale ms =
  envelope ~generator:"specpmt-bench"
    [
      ("scale", Json.Str scale);
      ("results", Json.List (List.map Run.measurement_to_json ms));
    ]

let reclaim_arg =
  let doc =
    "Reclamation trigger for the SpecSPMT schemes: compact the log once its \
     footprint exceeds $(docv) bytes."
  in
  Arg.(value & opt (some int) None & info [ "reclaim" ] ~docv:"BYTES" ~doc)

(* Apply --reclaim to a SpecSPMT params record; [None] when the flag was
   not given (the registry path stays in charge). *)
let spec_params_override ~reclaim base =
  match reclaim with
  | None -> None
  | Some b when b > 0 -> Some { base with Spec_soft.reclaim_bytes = b }
  | Some b -> fail "specpmt_run: --reclaim must be positive, not %d@." b

let run_cmd =
  let run scheme wname (scale, sc) seed reclaim json =
    let w = get_workload wname in
    let wants_override = reclaim <> None in
    let m =
      match spec_params_of_name scheme with
      | None when wants_override ->
          fail "specpmt_run: --reclaim only applies to the SpecSPMT schemes@."
      | Some base when wants_override ->
          let params = Option.get (spec_params_override ~reclaim base) in
          Run.run_custom ~seed
            ~make:(fun heap -> create_scheme ~spec_params:params heap scheme)
            ~name:scheme w sc
      | _ -> Run.run ~seed ~scheme w sc
    in
    print_measurement m;
    write_json json (fun () -> run_report ~scale [ m ])
  in
  Cmd.v (Cmd.info "run" ~doc:"Measure one workload under one scheme")
    Term.(
      const run $ scheme_arg $ workload_arg $ scale_arg $ seed_arg
      $ reclaim_arg $ json_arg)

let compare_cmd =
  let run wname (scale, sc) seed json =
    let w = get_workload wname in
    Fmt.pr "%-14s %12s %10s %10s %12s %10s@." "scheme" "sim ms" "fences"
      "flushes" "PM wlines" "log KiB";
    let ms =
      List.map
        (fun scheme ->
          let m = Run.run ~seed ~scheme w sc in
          Fmt.pr "%-14s %12.3f %10d %10d %12d %10d@." scheme (m.Run.ns /. 1e6)
            m.Run.fences m.Run.clwbs m.Run.pm_write_lines
            (m.Run.log_bytes / 1024);
          m)
        scheme_names
    in
    write_json json (fun () -> run_report ~scale ms)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run a workload under every scheme")
    Term.(const run $ workload_arg $ scale_arg $ seed_arg $ json_arg)

let crash_cmd =
  let run scheme wname (_, scale) seed =
    let w = get_workload wname in
    (* uninterrupted reference *)
    let reference = (Run.run ~seed ~scheme w scale).Run.checksum in
    (* crash-injected run: crash roughly mid-way, recover, resume from the
       beginning is impossible (the work closure is consumed), so audit
       atomic durability instead: recovery must succeed and the device be
       consistent enough to run transactions again *)
    let pm = Pmem.create ~seed Pmem_config.default in
    let heap = Heap.create pm in
    let backend = create_scheme heap scheme in
    let prepared = w.Workload.prepare scale heap backend in
    Pmem.set_fuse pm (Some 200_000);
    let crashed =
      try
        prepared.Workload.work ();
        false
      with Pmem.Crash -> true
    in
    if crashed then begin
      Pmem.crash pm;
      backend.Ctx.recover ();
      Fmt.pr "crashed mid-run and recovered; post-recovery state is usable:@."
    end
    else Fmt.pr "run completed before the fuse (%d events)@." 200_000;
    (* prove the runtime still works by committing fresh transactions *)
    let probe = Heap.alloc heap 8 in
    backend.Ctx.run_tx (fun ctx -> ctx.Ctx.write probe 4242);
    Pmem.crash pm;
    backend.Ctx.recover ();
    assert (Pmem.peek_volatile_int pm probe = 4242);
    Fmt.pr "post-crash commit survived a second crash;@.";
    Fmt.pr "uninterrupted-run checksum for reference: %x@." reference
  in
  Cmd.v
    (Cmd.info "crash" ~doc:"Crash a workload mid-run and audit recovery")
    Term.(
      const run
      $ recoverable_term (Crashmc.recoverable_names ())
      $ workload_arg $ scale_arg $ seed_arg)

let fuzz_cmd =
  let run scheme seed rounds =
    let make heap =
      let b = create_scheme heap scheme in
      ([| b |], b.Ctx.recover)
    in
    let r = Crashmc.torture ~make ~seed ~rounds () in
    match r.Crashmc.failure with
    | Some msg ->
        Fmt.pr "%s: NOT crash consistent: %s@." scheme msg;
        exit 1
    | None ->
        Fmt.pr
          "%s: %d crashes over %d committed transactions, all audits clean@."
          scheme r.Crashmc.crashes r.Crashmc.commits
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Randomized crash-recovery torture over a durable hash table")
    Term.(
      const run
      $ recoverable_term (Crashmc.recoverable_names ())
      $ seed_arg
      $ int_arg ~default:50 "rounds" "Crash rounds.")

let explore_cmd =
  let budget_arg =
    int_arg ~default:2000 "budget" "Maximum crash cases to execute."
  in
  let cells_arg = int_arg ~default:8 "cells" "Workload cells." in
  let txs_arg =
    int_arg ~lo:0 ~default:6 "txs"
      "Random transactions after the adoption transaction."
  in
  let max_writes_arg =
    int_arg ~default:4 "max-writes" "Maximum writes per transaction."
  in
  let policies_arg =
    Arg.(
      value
      & opt string "all,none,lines"
      & info [ "policies" ]
          ~doc:"Persist-choice families per crash point (all,none,lines,words).")
  in
  let fuse_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuse" ] ~docv:"N"
          ~doc:"Replay one case: crash at the $(docv)-th memory event.")
  in
  let choice_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "choice" ] ~docv:"CHOICE"
          ~doc:
            "Replay one case: persist choice (all, none, keepline:K, \
             dropline:K, keepword:K, dropword:K).")
  in
  let run scheme seed budget cells txs max_writes policies fuse choice jobs
      json =
    (* The exploration device is 1 MiB: a workload it cannot hold
       surfaces as the device's Out_of_memory while the workload is set
       up — on a worker domain too, whose failure the pool re-raises
       here — before anything is printed. *)
    let fitting_device f =
      try f ()
      with Out_of_memory ->
        fail
          "specpmt_run: --cells %d with --txs %d does not fit the 1 MiB \
           exploration device@."
          cells txs
    in
    let policies =
      match Crashmc.policies_of_string policies with
      | Ok p -> p
      | Error e -> fail "specpmt_run: %s@." e
    in
    match (fuse, choice) with
    | Some fuse, Some choice -> (
        let choice =
          match Crashmc.choice_of_string choice with
          | Ok c -> c
          | Error e -> fail "specpmt_run: %s@." e
        in
        match
          fitting_device (fun () ->
              Crashmc.replay ~cells ~txs ~max_writes ~scheme ~seed ~fuse
                ~choice ())
        with
        | Crashmc.Run_completed ->
            Fmt.pr "fuse %d outlived the workload; nothing to audit@." fuse
        | Crashmc.Audit_ok committed ->
            Fmt.pr
              "replayed fuse %d, choice %s: crashed after %d committed \
               transactions, recovered, audit clean@."
              fuse
              (Crashmc.choice_to_string choice)
              committed
        | Crashmc.Audit_failed f ->
            Fmt.pr "audit FAILED:@.%a@." Crashmc.pp_failure f;
            List.iter (fun l -> Fmt.pr "  trace: %s@." l) f.Crashmc.trace;
            exit 1)
    | None, None ->
        let t0 = Unix.gettimeofday () in
        let r =
          fitting_device (fun () ->
              Crashmc.explore ~jobs ~cells ~txs ~max_writes ~budget ~policies
                ~scheme ~seed ())
        in
        let wall_s = Unix.gettimeofday () -. t0 in
        let cases_per_sec =
          if wall_s > 0.0 then float_of_int r.Crashmc.cases /. wall_s else 0.0
        in
        Fmt.pr
          "%s: %d crash points (of %d events, stride %d) x persist choices = \
           %d cases, %d clean@."
          r.Crashmc.scheme r.Crashmc.points r.Crashmc.total_events
          r.Crashmc.stride r.Crashmc.cases r.Crashmc.passes;
        Fmt.pr "%.2fs wall (%d jobs), %.0f cases/sec@." wall_s jobs
          cases_per_sec;
        List.iter
          (fun f ->
            Fmt.pr "FAILURE %a@." Crashmc.pp_failure f;
            List.iter (fun l -> Fmt.pr "  trace: %s@." l) f.Crashmc.trace)
          r.Crashmc.failures;
        write_json json (fun () ->
            envelope ~generator:"specpmt-crashmc"
              [
                ( "report",
                  Obs.Sections.add
                    ~measured:
                      [
                        ("wall_s", Json.Float wall_s);
                        ("cases_per_sec", Json.Float cases_per_sec);
                      ]
                    (Crashmc.report_to_json r) );
              ]);
        if r.Crashmc.failures <> [] then exit 1
    | _ -> fail "specpmt_run: replay needs both --fuse and --choice@."
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Deterministically explore the crash-state space of a scheme \
          (crashmc)")
    Term.(
      const run
      $ recoverable_term (Crashmc.target_names ())
      $ seed_arg $ budget_arg $ cells_arg $ txs_arg
      $ max_writes_arg $ policies_arg $ fuse_arg $ choice_arg $ jobs_arg
      $ json_arg)

let svc_bench_cmd =
  let batch_arg =
    let check batches =
      String.split_on_char ',' batches
      |> List.map (fun s ->
             match int_of_string_opt (String.trim s) with
             | Some b -> check_int ~flag:"batch" b
             | None -> fail "specpmt_run: bad --batch %S (positive int list)@." s)
    in
    Term.(
      const check
      $ Arg.(
          value & opt string "8"
          & info [ "batch" ] ~docv:"N[,N..]"
              ~doc:
                "Transactions per group-commit batch.  A comma-separated \
                 list sweeps every value (the sweep runs on $(b,--jobs) \
                 domains; reports print in list order)."))
  in
  let mix_arg =
    let check m =
      if m >= 0.0 && m <= 1.0 then m
      else fail "specpmt_run: --mix must be in [0, 1], not %g@." m
    in
    Term.(
      const check
      $ Arg.(
          value & opt float 0.5
          & info [ "mix" ] ~doc:"Read fraction of the operation mix (0..1)."))
  in
  let skew_arg =
    Arg.(
      value & opt float 0.99
      & info [ "skew" ] ~doc:"Zipf theta of the key distribution (0 = uniform).")
  in
  let clients_arg =
    int_arg ~default:32 "clients"
      "Closed-loop clients: ops outstanding at once, each ack releasing the \
       next op of the stream."
  in
  let domains_arg =
    int_arg ~lo:0 ~default:0 "domains"
      "Run the shard-per-domain data plane on this many worker domains \
       (1..shards) instead of the serial in-process service.  Reports \
       measured wall-clock ops/sec and latency percentiles alongside the \
       modelled device time; the $(b,invariant) JSON section is \
       byte-identical for any domain count.  0 (default) keeps the serial \
       closed-loop path."
  in
  let run scheme shards batches depth mix skew clients ops keys seed reclaim
      jobs domains json =
    let base =
      match spec_params_of_name scheme with
      | Some p -> p
      | None ->
          fail "specpmt_run: svc-bench needs a SpecSPMT scheme, not %S@."
            scheme
    in
    let params =
      Option.value ~default:base (spec_params_override ~reclaim base)
    in
    (* a read/write mix: YCSB-A's key draw with the given read fraction *)
    let sp =
      {
        (Svc.Scenario.spec ~theta:skew Svc.Scenario.A) with
        Svc.Scenario.read = mix;
        update = 1.0 -. mix;
      }
    in
    let stream = Svc.Scenario.op_stream sp ~ops ~keys ~seed in
    fitting ~keys ~shards @@ fun () ->
    if domains > 0 then begin
      (* shard-per-domain data plane: one worker domain per shard group,
         measured wall clock alongside the modelled device time *)
      let batch =
        match batches with
        | [ b ] -> b
        | _ -> fail "specpmt_run: --domains takes a single --batch value@."
      in
      let cfg = dataplane_config ~shards ~domains ~batch ~depth ~keys in
      Obs.Metrics.reset_all ();
      let dp = Svc.Dataplane.create ~params (svc_heap ~seed) cfg in
      let report = Svc.Dataplane.run dp stream in
      Fmt.pr "%a" Svc.Dataplane.pp (cfg, report);
      write_json json (fun () ->
          envelope ~generator:"specpmt-svc-dataplane"
            [
              ("scheme", Json.Str scheme);
              ("report", Svc.Dataplane.report_to_json cfg report);
            ])
    end
    else begin
      (* One independent service instance per batch size; the sweep
         points share nothing, so they parallelize trivially and the
         reports are the same for any --jobs. *)
      let reports =
        Par.map_list ~jobs
          (fun batch ->
            serve ~params ~seed
              { Svc.Service.shards; batch_max = batch; depth; keys }
              { Svc.Openloop.rate = 0.0; arrivals = Closed { clients }; seed }
              stream)
          batches
      in
      let sweep = List.length batches > 1 in
      List.iter2
        (fun batch (report, wall_s) ->
          if sweep then Fmt.pr "--- batch %d ---@." batch;
          Fmt.pr "%a" Svc.Openloop.pp report;
          Fmt.pr "  measured: %.3f s wall, %.0f ops/s@." wall_s
            (if wall_s > 0.0 then
               float_of_int report.Svc.Openloop.ops /. wall_s
             else 0.0))
        batches reports;
      let to_json (report, wall_s) =
        Obs.Sections.add
          ~measured:[ ("wall_s", Json.Float wall_s) ]
          (Svc.Openloop.report_to_json report)
      in
      write_json json (fun () ->
          envelope ~generator:"specpmt-svc"
            [
              ("scheme", Json.Str scheme);
              (match reports with
              | [ r ] -> ("report", to_json r)
              | _ -> ("reports", Json.List (List.map to_json reports)));
            ])
    end
  in
  Cmd.v
    (Cmd.info "svc-bench"
       ~doc:
         "Drive the sharded KV service (group commit + admission control) \
          with a closed loop of clients")
    Term.(
      const run $ scheme_arg $ shards_arg $ batch_arg
      $ depth_arg ~default:64 $ mix_arg $ skew_arg $ clients_arg
      $ int_arg ~default:20_000 "ops" "Operations to complete."
      $ keys_arg ~default:4096 $ seed_arg $ reclaim_arg $ jobs_arg
      $ domains_arg $ json_arg)

let ycsb_cmd =
  let mix_arg =
    Arg.(
      value & opt string "A"
      & info [ "workload" ] ~docv:"MIX"
          ~doc:
            "YCSB mix: $(b,A) (50/50 read/update), $(b,B) (95/5), $(b,C) \
             (read-only), $(b,D) (read-latest), $(b,E) (short scans), \
             $(b,F) (read-modify-write).")
  in
  let rate_arg =
    Arg.(
      value & opt string "0"
      & info [ "rate" ] ~docv:"R[,R..]"
          ~doc:
            "Offered arrival rate(s), ops per second of simulated time; \
             $(b,0) is the saturation probe (every op due at t = 0, \
             goodput = measured capacity).  A comma-separated list sweeps \
             every rate on $(b,--jobs) domains; reports print in list \
             order and are byte-identical for any jobs count.")
  in
  let arrivals_arg =
    Arg.(
      value & opt string "poisson"
      & info [ "arrivals" ] ~docv:"PROC"
          ~doc:
            "Arrival process: $(b,poisson) or $(b,burst[:ON_MS:OFF_MS]) \
             (on/off arrivals, Poisson inside ON windows).")
  in
  let batch_arg =
    int_arg ~default:8 "batch" "Transactions per group-commit batch."
  in
  let theta_arg =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~doc:"Zipf theta of the key distribution.")
  in
  let scan_max_arg =
    int_arg ~default:16 "scan-max" "Maximum scan length (mix E)."
  in
  let domains_arg =
    int_arg ~default:2 "domains"
      "Worker domains of the data plane for the recovery drill (only with \
       $(b,--fuse-batches))."
  in
  let fuse_arg =
    Term.(
      const (Option.map (fun k -> check_int ~flag:"fuse-batches" k))
      $ Arg.(
          value
          & opt (some int) None
          & info [ "fuse-batches" ] ~docv:"K"
              ~doc:
                "Recovery-under-load drill: halt the data plane after its \
                 $(docv)-th batch, crash, recover, audit every cell \
                 (acked-durable/unacked-invisible) and resume under the \
                 arrival backlog.  Exits nonzero on a dirty audit.  Only \
                 read/write mixes (A-D) can be audited."))
  in
  let run mix rates arrivals ops keys shards batch depth theta scan_max seed
      domains fuse jobs json =
    let mix =
      match Svc.Scenario.mix_of_string mix with
      | Ok m -> m
      | Error e -> fail "specpmt_run: %s@." e
    in
    let arrivals =
      match Svc.Openloop.arrivals_of_string arrivals with
      | Ok a -> a
      | Error e -> fail "specpmt_run: %s@." e
    in
    let rates =
      String.split_on_char ',' rates
      |> List.map (fun s ->
             match float_of_string_opt (String.trim s) with
             | Some r -> r
             | None -> fail "specpmt_run: bad --rate %S (float list)@." s)
    in
    let sp = Svc.Scenario.spec ~theta ~scan_max mix in
    let stream = Svc.Scenario.op_stream sp ~ops ~keys ~seed in
    fitting ~keys ~shards @@ fun () ->
    match fuse with
    | Some fuse_batches ->
        (* recovery drill: the fuse is the one-line reproducible crash *)
        let t = Svc.Scenario.tally stream in
        if t.Svc.Shards.rmws > 0 || t.Svc.Shards.scans > 0 then
          fail
            "specpmt_run: --fuse-batches audits read/write mixes only \
             (A-D), not %s@."
            (Svc.Scenario.mix_to_string mix);
        let cfg = dataplane_config ~shards ~domains ~batch ~depth ~keys in
        let r =
          Svc.Openloop.recovery_under_load (svc_heap ~seed) cfg stream
            ~fuse_batches
        in
        Fmt.pr "%a" Svc.Openloop.pp_recovery r;
        write_json json (fun () ->
            envelope ~generator:"specpmt-ycsb-recovery"
              [
                ("workload", Json.Str (Svc.Scenario.mix_to_string mix));
                ("report", Svc.Openloop.recovery_to_json r);
              ]);
        if r.Svc.Openloop.rv_audit_failures > 0 then exit 1
    | None ->
        (* One independent service per rate: the sweep points share
           nothing, so they fan out over the domain pool and the reports
           are byte-identical for any --jobs. *)
        let cfg = { Svc.Service.shards; batch_max = batch; depth; keys } in
        let reports =
          Par.map_list ~jobs
            (fun rate ->
              fst (serve ~seed cfg { Svc.Openloop.rate; arrivals; seed } stream))
            rates
        in
        let sweep = List.length rates > 1 in
        List.iter2
          (fun rate r ->
            if sweep then Fmt.pr "--- rate %g ---@." rate;
            Fmt.pr "workload %s (%s)@."
              (Svc.Scenario.mix_to_string mix)
              (Svc.Scenario.dist_to_string sp.Svc.Scenario.dist);
            Fmt.pr "%a" Svc.Openloop.pp r)
          rates reports;
        write_json json (fun () ->
            envelope ~generator:"specpmt-ycsb"
              [
                ("workload", Json.Str (Svc.Scenario.mix_to_string mix));
                ("spec", Svc.Scenario.spec_to_json sp);
                (match reports with
                | [ r ] -> ("report", Svc.Openloop.report_to_json r)
                | _ ->
                    ( "reports",
                      Json.List (List.map Svc.Openloop.report_to_json reports)
                    ));
              ])
  in
  Cmd.v
    (Cmd.info "ycsb"
       ~doc:
         "Drive a YCSB mix through the sharded KV service open-loop \
          (scheduled arrivals, coordinated-omission-safe latency), or \
          crash it mid-traffic with --fuse-batches")
    Term.(
      const run $ mix_arg $ rate_arg $ arrivals_arg
      $ int_arg ~default:6_000 "ops" "Operations to offer."
      $ keys_arg ~default:1024 $ shards_arg $ batch_arg
      $ depth_arg ~default:32 $ theta_arg $ scan_max_arg $ seed_arg
      $ domains_arg $ fuse_arg $ jobs_arg $ json_arg)

let () =
  let info = Cmd.info "specpmt_run" ~doc:"SpecPMT workload runner" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            compare_cmd;
            crash_cmd;
            fuzz_cmd;
            explore_cmd;
            svc_bench_cmd;
            ycsb_cmd;
            Bench.cmd;
          ]))
