(* The crash-state exploration engine, turned on itself: exhaustively
   explore a small two-transaction workload for every recoverable scheme
   and require a clean verdict, plus determinism of the whole report and
   the reproducer round trip. *)

open Specpmt_crashmc

let small_explore ?policies scheme =
  (* budget far above the exhaustive case count so stride = 1 *)
  Crashmc.explore ?policies ~cells:4 ~txs:2 ~max_writes:2 ~budget:100_000
    ~scheme ~seed:7 ()

let pp_failures r =
  String.concat "\n"
    (List.map (Fmt.str "%a" Crashmc.pp_failure) r.Crashmc.failures)

(* every scheme survives exhaustive exploration of the small workload *)
let test_exhaustive_clean scheme () =
  let r = small_explore scheme in
  Alcotest.(check int)
    (scheme ^ ": exhaustive (stride 1)")
    1 r.Crashmc.stride;
  Alcotest.(check int)
    (scheme ^ ": every event was a crash point")
    r.Crashmc.total_events r.Crashmc.points;
  if r.Crashmc.failures <> [] then
    Alcotest.failf "%s: %d crash-consistency failures:\n%s" scheme
      (List.length r.Crashmc.failures)
      (pp_failures r);
  Alcotest.(check int) (scheme ^ ": all cases pass") r.Crashmc.cases
    r.Crashmc.passes

(* same seed -> byte-identical report, including the explored case set *)
let test_deterministic () =
  let j () =
    Specpmt_obs.Json.to_string
      (Crashmc.report_to_json (small_explore "SpecSPMT"))
  in
  Alcotest.(check string) "two runs, one report" (j ()) (j ())

(* the domain-pooled sweep is byte-identical to the serial one: same
   report JSON (cases, passes, failures, repro strings) for any jobs *)
let test_jobs_identical () =
  let report ~jobs ~budget scheme =
    Specpmt_obs.Json.to_string
      (Crashmc.report_to_json
         (Crashmc.explore ~jobs ~cells:4 ~txs:2 ~max_writes:2 ~budget ~scheme
            ~seed:7 ()))
  in
  List.iter
    (fun scheme ->
      (* exhaustive: every crash point fits the budget *)
      Alcotest.(check string)
        (scheme ^ ": exhaustive, jobs 4 == jobs 1")
        (report ~jobs:1 ~budget:100_000 scheme)
        (report ~jobs:4 ~budget:100_000 scheme);
      (* truncated: the budget cuts off mid-sweep, which exercises the
         parallel reduction's replay of serial budget accounting *)
      Alcotest.(check string)
        (scheme ^ ": truncated, jobs 4 == jobs 1")
        (report ~jobs:1 ~budget:37 scheme)
        (report ~jobs:4 ~budget:37 scheme))
    [ "SpecSPMT"; "PMDK" ]

(* a (fuse, choice) pair replays to the same verdict the sweep computed *)
let test_replay_roundtrip () =
  let r = small_explore "PMDK" in
  Alcotest.(check bool) "sweep found crash points" true (r.Crashmc.points > 0);
  (match
     Crashmc.replay ~cells:4 ~txs:2 ~max_writes:2 ~scheme:"PMDK" ~seed:7
       ~fuse:1 ~choice:Crashmc.Persist_none ()
   with
  | Crashmc.Audit_ok _ -> ()
  | Crashmc.Run_completed -> Alcotest.fail "fuse 1 should crash"
  | Crashmc.Audit_failed f ->
      Alcotest.failf "replay failed: %a" Crashmc.pp_failure f);
  match
    Crashmc.replay ~cells:4 ~txs:2 ~max_writes:2 ~scheme:"PMDK" ~seed:7
      ~fuse:1_000_000 ~choice:Crashmc.Persist_all ()
  with
  | Crashmc.Run_completed -> ()
  | _ -> Alcotest.fail "an unburnt fuse must report Run_completed"

(* The btree target's workload provably crosses every structural
   transition at the CI sweep's parameters: a clean exploration at these
   parameters is then a statement about splits, merges and root moves
   under crashes, not just about point updates. *)
let test_btree_coverage () =
  let st = Crashmc.btree_coverage ~cells:24 ~txs:12 ~max_writes:6 ~seed:1 () in
  let open Specpmt_pstruct.Pbtree in
  Alcotest.(check bool) "leaf splits" true (st.leaf_splits > 0);
  Alcotest.(check bool) "internal splits" true (st.internal_splits > 0);
  Alcotest.(check bool) "merges" true (st.merges > 0);
  Alcotest.(check bool) "root growth" true (st.root_grows > 0);
  Alcotest.(check bool) "root collapse" true (st.root_shrinks > 0)

(* strided btree sweep at the structural-coverage parameters (the small
   exhaustive workload above has too few cells to split an order-4
   tree): every sampled crash point must audit clean *)
let test_btree_sweep () =
  let r =
    Crashmc.explore ~cells:24 ~txs:12 ~max_writes:6 ~budget:200
      ~scheme:"SpecSPMT-btree" ~seed:1 ()
  in
  if r.Crashmc.failures <> [] then
    Alcotest.failf "SpecSPMT-btree: %d failures:\n%s"
      (List.length r.Crashmc.failures)
      (pp_failures r);
  Alcotest.(check int) "all cases pass" r.Crashmc.cases r.Crashmc.passes;
  Alcotest.(check bool) "swept a real case count" true (r.Crashmc.cases >= 100)

(* A recycled log block keeps its old checksummed records.  In this
   case the newest record (ts 14) ends within a record's length of its
   block's end, the scan follows the block's persisted successor pointer,
   and the successor is a block the compaction after ts 7 recycled, whose
   media still holds records from before it.  Replaying them after ts 14
   rolls cells back; the scan must stop at the first record that is not
   newer. *)
let test_recycled_block_point () =
  match
    Crashmc.replay ~cells:8 ~txs:24 ~max_writes:4 ~scheme:"SpecSPMT-replay"
      ~seed:3 ~fuse:525 ~choice:Crashmc.Persist_none ()
  with
  | Crashmc.Audit_ok _ -> ()
  | Crashmc.Run_completed -> Alcotest.fail "fuse 525 should crash"
  | Crashmc.Audit_failed f ->
      Alcotest.failf "recovered stale values:@.%a" Crashmc.pp_failure f

(* every crash point of a history long enough to compact, recycle and
   reuse log blocks several times over *)
let test_long_history_stride_1 scheme () =
  let r = Crashmc.explore ~txs:24 ~budget:1_000_000 ~scheme ~seed:1 () in
  Alcotest.(check int) (scheme ^ ": stride 1") 1 r.Crashmc.stride;
  if r.Crashmc.failures <> [] then
    Alcotest.failf "%s: %d failures:\n%s" scheme
      (List.length r.Crashmc.failures)
      (pp_failures r);
  Alcotest.(check int) (scheme ^ ": all cases pass") r.Crashmc.cases
    r.Crashmc.passes

(* the reproducer encoding survives a round trip for every choice form *)
let test_choice_roundtrip () =
  List.iter
    (fun c ->
      let s = Crashmc.choice_to_string c in
      match Crashmc.choice_of_string s with
      | Ok c' ->
          Alcotest.(check string) ("roundtrip " ^ s) s
            (Crashmc.choice_to_string c')
      | Error e -> Alcotest.failf "%s failed to parse back: %s" s e)
    [
      Crashmc.Persist_all;
      Crashmc.Persist_none;
      Crashmc.Keep_line 2;
      Crashmc.Drop_line 0;
      Crashmc.Keep_word 3;
      Crashmc.Drop_word 1;
    ];
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Crashmc.choice_of_string "keepline:x"))

let () =
  Alcotest.run "crashmc"
    [
      ( "exhaustive small workload",
        List.map
          (fun s -> Alcotest.test_case s `Slow (test_exhaustive_clean s))
          (Crashmc.target_names ()) );
      ( "btree target",
        [
          Alcotest.test_case "structural coverage" `Quick test_btree_coverage;
          Alcotest.test_case "strided sweep clean" `Slow test_btree_sweep;
        ] );
      ( "recycled log blocks",
        [
          Alcotest.test_case "replay point over a recycled block" `Quick
            test_recycled_block_point;
          Alcotest.test_case "SpecSPMT-replay, 24 txs, stride 1" `Slow
            (test_long_history_stride_1 "SpecSPMT-replay");
          Alcotest.test_case "SpecSPMT, 24 txs, stride 1" `Slow
            (test_long_history_stride_1 "SpecSPMT");
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic report" `Quick test_deterministic;
          Alcotest.test_case "jobs-independent report" `Slow
            test_jobs_identical;
          Alcotest.test_case "replay roundtrip" `Quick test_replay_roundtrip;
          Alcotest.test_case "choice encoding roundtrip" `Quick
            test_choice_roundtrip;
        ] );
    ]
