open Specpmt_obs

(* Hist.quantile edge cases: the estimator promises 0 on an empty
   snapshot, the sample itself when there is exactly one, and sane
   clamping at the q = 0.0 / q = 1.0 extremes (rank clamps to
   [1, count], the result to the observed max). *)

let snap observations =
  let h = Hist.create () in
  List.iter (Hist.observe h) observations;
  Hist.snapshot h

let test_quantile_empty () =
  let s = snap [] in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%.2f of empty" q)
        0 (Hist.quantile s q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.(check int) "min is 0 when empty" 0 s.Hist.min;
  Alcotest.(check int) "max is 0 when empty" 0 s.Hist.max;
  Alcotest.(check (float 0.0)) "mean is 0 when empty" 0.0 (Hist.mean s)

let test_quantile_single_sample () =
  (* 7 is a bucket upper bound, so every quantile is exact *)
  let s = snap [ 7 ] in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%.2f of singleton" q)
        7 (Hist.quantile s q))
    [ 0.0; 0.5; 1.0 ];
  (* 5 shares 7's bucket; the estimate must clamp to the observed max,
     not report the bucket boundary *)
  let s = snap [ 5 ] in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%.2f clamps to max" q)
        5 (Hist.quantile s q))
    [ 0.0; 0.5; 1.0 ]

let test_quantile_extremes () =
  let s = snap [ 1; 1000 ] in
  (* q = 0.0: rank clamps up to the first sample *)
  Alcotest.(check int) "q=0.0 is the smallest bucket" 1 (Hist.quantile s 0.0);
  (* q = 0.5: ceil(0.5 * 2) = 1, still the first sample *)
  Alcotest.(check int) "q=0.5 is still the first sample" 1
    (Hist.quantile s 0.5);
  (* q = 1.0: last sample's bucket, clamped to the observed max *)
  Alcotest.(check int) "q=1.0 clamps to max" 1000 (Hist.quantile s 1.0)

let test_quantile_monotone () =
  let s = snap (List.init 100 (fun i -> i * 3)) in
  let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
  let vs = List.map (Hist.quantile s) qs in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "quantile is monotone in q" true (mono vs);
  Alcotest.(check int) "q=1.0 is the max" s.Hist.max (Hist.quantile s 1.0)

(* Sections.group files each named run's sections under its name, in
   the order given, and leaves a run out of a section it has nothing
   in; Sections.add appends to a report's sections. *)
let test_sections_group () =
  let run ops = Sections.v ~invariant:[ ("ops", Json.Int ops) ] in
  let a = run 1 ~modelled:[ ("ns", Json.Int 2) ] ~measured:[] in
  let b =
    Sections.add
      ~measured:[ ("wall_s", Json.Int 3) ]
      (run 4 ~modelled:[] ~measured:[])
  in
  Alcotest.(check string)
    "sections of named runs"
    {|{"invariant":{"a":{"ops":1},"b":{"ops":4}},"modelled":{"a":{"ns":2}},"measured":{"b":{"wall_s":3}}}|}
    (Fmt.str "%a" Json.pp (Sections.group [ ("a", a); ("b", b) ]));
  Alcotest.(check bool)
    "a value of another layout is rejected" true
    (match Sections.group [ ("c", Json.Obj []) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "obs"
    [
      ( "hist quantile",
        [
          Alcotest.test_case "empty snapshot" `Quick test_quantile_empty;
          Alcotest.test_case "single sample" `Quick test_quantile_single_sample;
          Alcotest.test_case "q=0.0 and q=1.0" `Quick test_quantile_extremes;
          Alcotest.test_case "monotone in q" `Quick test_quantile_monotone;
        ] );
      ( "sections",
        [ Alcotest.test_case "group named runs" `Quick test_sections_group ] );
    ]
