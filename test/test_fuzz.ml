(* Crash-recovery torture as a regression test: the scenario that exposed
   five real bugs during development (stale NT-log handles, stale page
   snapshots of allocator headers, pre-commit durable frees, deferred
   frees surviving a crashed transaction, and in-place leaks of
   out-of-place schemes), and, once its audit became exact, two more (a
   crashed transaction's writes carried across recovery by SPHT and
   HOOP, and a crashed transaction revived by Spec-hashlog's next
   commit).  A durable hash table under random insert/remove churn with
   random crash points and aggressive cache leakage; after every
   recovery the table must equal the committed reference, or that
   reference plus the one op in flight at the crash (Crashmc.torture). *)

open Specpmt

let schemes =
  [ "PMDK"; "SPHT"; "SpecSPMT-DP"; "SpecSPMT"; "Spec-hashlog"; "EDE"; "HOOP"; "SpecHPMT-DP"; "SpecHPMT" ]

let check name r =
  match r.Crashmc.failure with
  | Some msg -> Alcotest.failf "%s: %s" name msg
  | None -> ()

let one_core scheme heap =
  let b = create_scheme heap scheme in
  ([| b |], b.Ctx.recover)

let torture scheme ~seeds ~rounds () =
  List.iter
    (fun seed ->
      check
        (Printf.sprintf "%s, seed %d" scheme seed)
        (Crashmc.torture ~make:(one_core scheme) ~seed ~rounds ()))
    seeds

(* the same torture over the multi-core hardware pool: transactions are
   spread across three cores sharing the pool *)
let torture_mt ~seed ~rounds () =
  let make heap =
    let pool = Spec_hw.Mt.create heap ~threads:3 in
    (Array.init 3 (Spec_hw.Mt.thread pool), fun () -> Spec_hw.Mt.recover pool)
  in
  check "SpecHPMT-Mt" (Crashmc.torture ~make ~seed ~rounds ())

let () =
  Alcotest.run "fuzz"
    [
      ( "hash-table crash torture",
        List.map
          (fun s ->
            Alcotest.test_case s `Slow (torture s ~seeds:[ 1 ] ~rounds:12))
          schemes
        @ [
            Alcotest.test_case "SpecHPMT multi-core" `Slow
              (torture_mt ~seed:1 ~rounds:12);
          ] );
      ( "hash-table crash torture, seeds 2-7",
        List.map
          (fun s ->
            Alcotest.test_case s `Slow
              (torture s ~seeds:[ 2; 3; 4; 5; 6; 7 ] ~rounds:40))
          schemes );
    ]
