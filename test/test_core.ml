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
   is work + drain, a run never recovers and reclaims unmetered, and a
   SpecSPMT pool persists something while it is built and set up.
   Checked through the report, whose layout is the contract. *)
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
    List.iter
      (fun p -> Alcotest.(check bool) (p ^ " row is zero") true (zero p))
      [ "recover"; "reclaim" ];
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
    ]
