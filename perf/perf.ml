(* The benchmark harness: drives the library from outside through its
   public functions, prints every metric by name with its unit, and as
   the last line of standard output one JSON result record.  Exits
   non-zero on any wrong output.  See README.md. *)

let workloads = [ "ycsb-a-large"; "ycsb-e"; "dp-b"; "stamp" ]

let usage =
  "perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|FILE] [--json FILE]\n\
   perf.exe --selftest\n\
   workloads: " ^ String.concat ", " workloads

let run_one ~workload ~seed ~seconds ~trace ~json =
  let tracer = if trace = "0" then None else Some (Spans.create ()) in
  let o =
    match workload with
    | "ycsb-a-large" -> Ycsb.run ?trace:tracer ~seed ~seconds Ycsb.a_large
    | "ycsb-e" -> Ycsb.run ?trace:tracer ~seed ~seconds Ycsb.e
    | "dp-b" -> Dp.run ?trace:tracer ~seed ~seconds ()
    | "stamp" -> Stamp.run ?trace:tracer ~seed ~seconds ()
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  (match tracer with
  | Some t when trace <> "1" -> Spans.write t trace
  | _ -> ());
  Option.iter (fun f -> Specpmt.Json.to_file f (Report.to_json o ~seed ~seconds)) json;
  let traced = tracer <> None in
  Report.print_table o ~traced;
  print_endline (Report.result_line o ~traced);
  if not o.Report.correct then exit 1

(* [all]: one process per workload, so each one's heap peak is its own *)
let run_all ~seed ~seconds ~trace ~json =
  let per w path =
    Filename.remove_extension path ^ "." ^ w ^ Filename.extension path
  in
  let failed =
    List.filter
      (fun w ->
        let args =
          [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
            "--seconds"; string_of_int seconds; "--trace";
            (if trace = "0" || trace = "1" then trace else per w trace) ]
          @ match json with Some f -> [ "--json"; per w f ] | None -> []
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
            Unix.stdout Unix.stderr
        in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> false | _ -> true)
      workloads
  in
  if failed <> [] then exit 1

let () =
  let workload = ref "all" and seed = ref 42 and seconds = ref 20 in
  let trace = ref "0" and json = ref None and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all (default)");
      ("--seed", Arg.Set_int seed, "N seed of the op streams and arrivals (default 42)");
      ("--seconds", Arg.Set_int seconds, "S time budget of the measured rounds (default 20)");
      ("--trace", Arg.Set_string trace, "0|1|FILE per-layer traced run; FILE also gets the spans");
      ("--json", Arg.String (fun f -> json := Some f), "FILE write the full report");
      ("--selftest", Arg.Set selftest, " run the harness self-tests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !selftest then Selftest.run ()
  else if !workload = "all" then run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
  else run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
