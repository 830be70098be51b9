(* The domain pool behind every parallel harness loop: results must come
   back in index order regardless of jobs/chunking, worker failures must
   propagate to the caller, and per-domain observability must merge into
   the parent registry at join. *)

open Specpmt_par

let squares n = Array.init n (fun i -> i * i)

(* any (jobs, chunk) combination reduces to the serial reference *)
let test_ordered_reduction () =
  let n = 100 in
  let reference = squares n in
  List.iter
    (fun (jobs, chunk) ->
      let got = Par.run ~jobs ~chunk ~n (fun i -> i * i) in
      Alcotest.(check (array int))
        (Fmt.str "jobs=%d chunk=%d" jobs chunk)
        reference got)
    [ (1, 1); (2, 1); (4, 1); (4, 3); (4, 7); (8, 16); (16, 1) ]

let test_map_list_order () =
  let xs = List.init 53 (fun i -> i) in
  Alcotest.(check (list int))
    "map_list keeps list order"
    (List.map (fun i -> i * 3) xs)
    (Par.map_list ~jobs:4 (fun i -> i * 3) xs)

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "n=0" [||] (Par.run ~jobs:4 ~n:0 (fun i -> i));
  Alcotest.(check (array int)) "n=1" [| 42 |]
    (Par.run ~jobs:4 ~n:1 (fun _ -> 42));
  Alcotest.check_raises "negative n" (Invalid_argument "Par.run: negative n")
    (fun () -> ignore (Par.run ~jobs:4 ~n:(-1) (fun i -> i)))

(* a worker exception reaches the caller as that same exception *)
let test_exception_propagation () =
  List.iter
    (fun jobs ->
      match Par.run ~jobs ~n:64 (fun i -> failwith (string_of_int i)) with
      | _ -> Alcotest.failf "jobs=%d: expected an exception" jobs
      | exception Failure _ -> ())
    [ 1; 4 ]

(* metrics bumped on worker domains land in the parent registry *)
let test_metrics_merge () =
  let open Specpmt_obs in
  List.iter
    (fun jobs ->
      Metrics.reset_all ();
      let n = 200 in
      let _ : unit array =
        Par.run ~jobs ~n (fun i ->
            Metrics.incr (Metrics.counter "par.test.calls");
            Metrics.add (Metrics.counter "par.test.sum") i)
      in
      Alcotest.(check int)
        (Fmt.str "jobs=%d: calls" jobs)
        n
        (Metrics.counter_value (Metrics.counter "par.test.calls"));
      Alcotest.(check int)
        (Fmt.str "jobs=%d: sum" jobs)
        (n * (n - 1) / 2)
        (Metrics.counter_value (Metrics.counter "par.test.sum")))
    [ 1; 4 ]

let test_default_jobs () =
  let j = Par.default_jobs () in
  Alcotest.(check bool) "1 <= default_jobs <= 8" true (j >= 1 && j <= 8)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered reduction" `Quick test_ordered_reduction;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          Alcotest.test_case "empty/singleton/negative" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "default jobs bounds" `Quick test_default_jobs;
        ] );
      ( "obs merge",
        [
          Alcotest.test_case "metrics merge at join" `Quick test_metrics_merge;
        ] );
    ]
