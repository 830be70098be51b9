(* Operator-input errors at the CLI: a bad scheme name, an unwritable
   --json path or an out-of-range numeric flag must fail up front with
   one line on stderr and exit code 2, before any experiment runs
   (nothing on stdout). *)

let exe rel = Filename.concat (Filename.dirname Sys.executable_name) rel
let specpmt_run = exe "../bin/specpmt_run.exe"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

(* run [prog args], returning the exit code, stdout and stderr lines *)
let run prog args =
  let out = Filename.temp_file "cli" ".out"
  and err = Filename.temp_file "cli" ".err" in
  let cmd =
    String.concat " " (List.map Filename.quote (prog :: args))
    ^ Printf.sprintf " >%s 2>%s" (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let o = read_lines out and e = read_lines err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* a report path whose directory does not exist *)
let missing_dir_path () =
  let f = Filename.temp_file "cli" "" in
  Sys.remove f;
  Filename.concat f "x.json"

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_usage_error ~code ~mentions (got, out, err) =
  Alcotest.(check int) "exit code" code got;
  Alcotest.(check (list string)) "no work ran (stdout empty)" [] out;
  match err with
  | [ line ] ->
      if not (contains line mentions) then
        Alcotest.failf "stderr %S does not mention %S" line mentions
  | _ -> Alcotest.failf "want one stderr line, got %d" (List.length err)

(* each (arguments, what stderr must mention) row is a usage error *)
let usage_errors rows =
  List.iter
    (fun (args, mentions) ->
      run specpmt_run args |> check_usage_error ~code:2 ~mentions)
    rows

let test_run_unknown_scheme () =
  run specpmt_run [ "run"; "-s"; "Bogus"; "--scale"; "quick" ]
  |> check_usage_error ~code:2 ~mentions:"Bogus"

let test_run_unwritable_json () =
  let path = missing_dir_path () in
  run specpmt_run [ "run"; "--scale"; "quick"; "--json"; path ]
  |> check_usage_error ~code:2 ~mentions:path;
  (* a writable path still gets the report *)
  let ok = Filename.temp_file "cli" ".json" in
  let code, _, _ = run specpmt_run [ "run"; "--scale"; "quick"; "--json"; ok ] in
  Alcotest.(check int) "writable path runs" 0 code;
  Alcotest.(check bool) "report written" true
    (In_channel.with_open_text ok In_channel.input_all <> "");
  Sys.remove ok

(* --reclaim is a byte count: a policy name is a cmdliner parse error
   (exit 124, usage on stderr), a non-positive count a usage error *)
let test_run_reclaim_bytes () =
  run specpmt_run
    [ "run"; "-s"; "SpecSPMT"; "--scale"; "quick"; "--reclaim"; "0" ]
  |> check_usage_error ~code:2 ~mentions:"--reclaim";
  let code, out, err =
    run specpmt_run
      [ "run"; "-s"; "SpecSPMT"; "--scale"; "quick"; "--reclaim"; "adaptive" ]
  in
  Alcotest.(check int) "parse error exit code" 124 code;
  Alcotest.(check (list string)) "no work ran (stdout empty)" [] out;
  (match err with
  | line :: _ when contains line "--reclaim" -> ()
  | _ -> Alcotest.failf "stderr does not start with a --reclaim error");
  let code, _, _ =
    run specpmt_run
      [ "run"; "-s"; "SpecSPMT"; "--scale"; "quick"; "--reclaim"; "4096" ]
  in
  Alcotest.(check int) "a byte count runs" 0 code

(* the bench subcommand takes the same terms, and fails the same way *)
let test_bench_usage () =
  let path = missing_dir_path () in
  usage_errors
    [
      ([ "bench"; "--scale"; "quick"; "fig99" ], "fig99");
      ([ "bench"; "--scale"; "tiny"; "table2" ], "tiny");
      ([ "bench"; "--scale"; "quick"; "--jobs"; "0"; "table2" ], "--jobs");
      ([ "bench"; "--scale"; "quick"; "table2"; "--json"; path ], path);
    ]

(* counts that would crash the crash explorer or fuzzer, or let them
   pass having tested nothing, are usage errors too — including a
   workload the exploration device cannot hold *)
let test_explore_fuzz_counts () =
  usage_errors
    [
      ([ "explore"; "--cells"; "0" ], "--cells");
      ([ "explore"; "--max-writes"; "0" ], "--max-writes");
      ([ "explore"; "--cells"; "32768"; "--txs"; "2"; "--budget"; "5" ], "--cells");
      ([ "explore"; "--budget"; "0" ], "--budget");
      ([ "fuzz"; "--rounds"; "0" ], "--rounds");
    ]

(* crash and fuzz audit recovery: a scheme that cannot recover is
   refused up front, before crash's uninterrupted reference run *)
let test_unrecoverable_scheme () =
  usage_errors
    [
      ([ "crash"; "-s"; "raw" ], "raw");
      ([ "crash"; "-s"; "no-log"; "--scale"; "quick" ], "no-log");
      ([ "crash"; "-s"; "Kamino-Tx" ], "Kamino-Tx");
      ([ "fuzz"; "-s"; "raw"; "--rounds"; "1" ], "raw");
      ([ "fuzz"; "-s"; "no-log"; "--rounds"; "1" ], "no-log");
    ]

(* the service commands' numeric flags are range-checked as the command
   line is read, never left to an Invalid_argument deep inside a run *)
let test_service_numeric_flags () =
  usage_errors
    [
      ([ "ycsb"; "--ops"; "0" ], "--ops");
      ([ "ycsb"; "--shards"; "0" ], "--shards");
      ([ "ycsb"; "--shards"; "70" ], "--shards");
      ([ "ycsb"; "--batch"; "0" ], "--batch");
      ([ "ycsb"; "--depth"; "0" ], "--depth");
      ([ "ycsb"; "--keys"; "0" ], "--keys");
      ([ "ycsb"; "--workload"; "E"; "--scan-max"; "0" ], "--scan-max");
      ([ "ycsb"; "--workload"; "B"; "--fuse-batches"; "0" ], "--fuse-batches");
      ([ "svc-bench"; "--clients"; "0" ], "--clients");
      ([ "svc-bench"; "--shards"; "0" ], "--shards");
      ([ "svc-bench"; "--depth"; "0" ], "--depth");
      ([ "svc-bench"; "--keys"; "0" ], "--keys");
      ([ "svc-bench"; "--domains"; "2"; "--depth"; "4"; "--batch"; "8" ], "--depth");
      ([ "svc-bench"; "--mix"; "1.5" ], "--mix");
      ([ "svc-bench"; "--ops"; "0" ], "--ops");
      (* a service the 64 MiB device cannot hold: the flat table, an
         adoption write set overflowing a carved log region, and the
         recovery drill's data plane *)
      ([ "ycsb"; "--keys"; "8000000"; "--ops"; "10" ], "--keys");
      ( [ "svc-bench"; "--domains"; "4"; "--keys"; "1000000"; "--ops"; "10" ],
        "--keys" );
      ( [ "ycsb"; "--workload"; "B"; "--keys"; "1000000"; "--ops"; "100";
          "--fuse-batches"; "2"; "--domains"; "4" ],
        "--keys" );
    ]

let () =
  Alcotest.run "cli"
    [
      ( "operator input",
        [
          Alcotest.test_case "run: unknown scheme" `Quick
            test_run_unknown_scheme;
          Alcotest.test_case "run: unwritable --json" `Quick
            test_run_unwritable_json;
          Alcotest.test_case "run: --reclaim takes bytes" `Quick
            test_run_reclaim_bytes;
          Alcotest.test_case "bench: usage errors" `Quick test_bench_usage;
          Alcotest.test_case "explore/fuzz: bad counts" `Quick
            test_explore_fuzz_counts;
          Alcotest.test_case "crash/fuzz: unrecoverable scheme" `Quick
            test_unrecoverable_scheme;
          Alcotest.test_case "svc-bench/ycsb: bad numeric flags" `Quick
            test_service_numeric_flags;
        ] );
    ]
