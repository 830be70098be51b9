open Specpmt

(* the public facade *)

let test_scheme_names_resolve () =
  List.iter
    (fun name ->
      let pm = Pmem.create Pmem_config.default in
      let heap = Heap.create pm in
      let b = create_scheme heap name in
      Alcotest.(check string) "name round-trips" name b.Ctx.name)
    scheme_names

let test_unknown_scheme_rejected () =
  let pm = Pmem.create Pmem_config.default in
  let heap = Heap.create pm in
  Alcotest.(check bool) "unknown scheme raises" true
    (try
       ignore (create_scheme heap "nonesuch");
       false
     with Invalid_argument _ -> true)

let test_run_measurement_consistency () =
  let w = Option.get (Workload.find "ssca2") in
  let m = Run.run ~scheme:"SpecSPMT" w Workload.Quick in
  Alcotest.(check bool) "time positive" true (m.Run.ns > 0.0);
  Alcotest.(check bool) "txs counted" true (m.Run.txs > 0);
  Alcotest.(check bool) "updates >= txs" true (m.Run.updates >= m.Run.txs);
  Alcotest.(check bool) "write set sane" true
    (m.Run.avg_tx_bytes >= 8.0);
  (* one fence per transaction is the SpecPMT signature *)
  Alcotest.(check bool) "~one fence per tx" true
    (m.Run.fences <= m.Run.txs + 16)

let test_run_custom_matches_named () =
  let w = Option.get (Workload.find "genome") in
  let a = Run.run ~seed:3 ~scheme:"PMDK" w Workload.Quick in
  let b =
    Run.run_custom ~seed:3
      ~make:(fun heap -> create_scheme heap "PMDK")
      ~name:"PMDK" w Workload.Quick
  in
  Alcotest.(check int) "same checksum" a.Run.checksum b.Run.checksum;
  Alcotest.(check (float 0.0)) "same time" a.Run.ns b.Run.ns

(* The report's phase rows split the device's tally: the measured phase
   is work + drain, and a SpecSPMT pool persists something while it is
   built and set up.  Checked through the report, whose layout is the
   contract. *)
let test_phase_split () =
  let field name = function
    | Json.Obj kvs -> List.assoc name kvs
    | _ -> Alcotest.failf "no object holds %S" name
  in
  let int = function Json.Int n -> n | _ -> Alcotest.fail "not an int" in
  let check_split ~setup_persists (m : Run.measurement) =
    let phases = field "phases" (Run.measurement_to_json m) in
    let count phase c = int (field c (field phase phases)) in
    List.iter
      (fun (c, headline) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: work + drain %s" m.Run.scheme c)
          headline
          (count "work" c + count "drain" c))
      [
        ("fences", m.Run.fences);
        ("clwbs", m.Run.clwbs);
        ("pm_write_lines", m.Run.pm_write_lines);
        ("pm_read_lines", m.Run.pm_read_lines);
      ];
    let zero phase =
      match field phase phases with
      | Json.Obj kvs -> List.for_all (fun (_, v) -> v = Json.Int 0) kvs
      | _ -> false
    in
    if setup_persists then
      List.iter
        (fun p -> Alcotest.(check bool) (p ^ " row is not zero") false (zero p))
        [ "prepare"; "other" ]
  in
  let w = Option.get (Workload.find "intruder") in
  (* a 4 KiB trigger: the log is compacted in the prepare and the work
     windows *)
  let params =
    {
      (Option.get (spec_params_of_name "SpecSPMT")) with
      Spec_soft.reclaim_bytes = 4096;
    }
  in
  let m =
    Run.run_custom
      ~make:(fun heap -> create_scheme ~spec_params:params heap "SpecSPMT")
      ~name:"SpecSPMT" w Workload.Quick
  in
  Alcotest.(check bool) "the log was compacted" true
    (int (field "reclaim.cycles" (field "counters" m.Run.metrics)) > 0);
  check_split ~setup_persists:true m;
  check_split ~setup_persists:false
    (Run.run ~scheme:"SpecHPMT" w Workload.Quick)

(* Every run report has one layout: exactly the sections invariant,
   modelled and measured, and no key naming a host-clock value outside
   measured.  Each of the four serializers runs on a small input. *)
let test_report_layout () =
  let names k sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length k && (String.sub k i n = sub || at (i + 1))
    in
    at 0
  in
  let host_clock k =
    names k "wall" || names k "rebuild" || k = "cases_per_sec"
    || k = "router_stalls"
  in
  let rec host_keys = function
    | Json.Obj kvs ->
        List.concat_map
          (fun (k, v) -> (if host_clock k then [ k ] else []) @ host_keys v)
          kvs
    | Json.List l -> List.concat_map host_keys l
    | _ -> []
  in
  let check name = function
    | Json.Obj kvs ->
        Alcotest.(check (list string))
          (name ^ ": sections")
          [ "invariant"; "modelled"; "measured" ]
          (List.map fst kvs);
        List.iter
          (fun (section, v) ->
            if section <> "measured" then
              Alcotest.(check (list string))
                (Printf.sprintf "%s: host-clock keys in %s" name section)
                [] (host_keys v))
          kvs
    | _ -> Alcotest.failf "%s: not an object" name
  in
  let heap () = Heap.create (Pmem.create ~seed:3 Pmem_config.default) in
  let keys = 64 in
  let stream =
    Svc.Scenario.op_stream (Svc.Scenario.spec Svc.Scenario.B) ~ops:400 ~keys
      ~seed:5
  in
  let svc =
    Svc.Service.create (heap ())
      { Svc.Service.shards = 2; batch_max = 4; depth = 16; keys }
  in
  check "Openloop.report_to_json"
    (Svc.Openloop.report_to_json
       (Svc.Openloop.run svc
          { Svc.Openloop.rate = 0.0; arrivals = Svc.Openloop.Poisson; seed = 7 }
          stream));
  let cfg =
    {
      Svc.Dataplane.shards = 2;
      domains = 2;
      batch_max = 4;
      depth = 16;
      keys;
      log_region_bytes = 1 lsl 16;
    }
  in
  check "Dataplane.report_to_json"
    (Svc.Dataplane.report_to_json cfg
       (Svc.Dataplane.run (Svc.Dataplane.create (heap ()) cfg) stream));
  check "Openloop.recovery_to_json"
    (Svc.Openloop.recovery_to_json
       (Svc.Openloop.recovery_under_load (heap ()) cfg stream ~fuse_batches:5));
  check "Crashmc.report_to_json"
    (Crashmc.report_to_json
       (Crashmc.explore ~cells:4 ~txs:2 ~max_writes:2 ~budget:50
          ~scheme:"SpecSPMT" ~seed:7 ()))

let test_scheme_list_covers_figures () =
  (* every scheme the figures reference must be constructible *)
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (List.mem s scheme_names))
    [
      "raw"; "PMDK"; "Kamino-Tx"; "SPHT"; "SpecSPMT-DP"; "SpecSPMT";
      "Spec-hashlog"; "EDE"; "HOOP"; "SpecHPMT-DP"; "SpecHPMT"; "no-log";
    ]

let () =
  Alcotest.run "core"
    [
      ( "facade",
        [
          Alcotest.test_case "scheme names resolve" `Quick
            test_scheme_names_resolve;
          Alcotest.test_case "unknown scheme rejected" `Quick
            test_unknown_scheme_rejected;
          Alcotest.test_case "figure schemes present" `Quick
            test_scheme_list_covers_figures;
        ] );
      ( "run harness",
        [
          Alcotest.test_case "measurement consistency" `Quick
            test_run_measurement_consistency;
          Alcotest.test_case "run_custom matches named" `Quick
            test_run_custom_matches_named;
          Alcotest.test_case "phase split adds up" `Quick test_phase_split;
        ] );
      ( "reports",
        [ Alcotest.test_case "one section layout" `Quick test_report_layout ] );
    ]
