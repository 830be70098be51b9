(* Self-tests of the harness, run by [dune runtest]:
   - the open-loop driver reproduces [Openloop.run] exactly;
   - the STAMP path reproduces [Run.run] exactly;
   - a corrupted completion and a corrupted cell are counted as failed;
   - a short traced ycsb-a-large conserves modelled time, chains every
     span to an op id, and writes a trace that parses as JSON. *)

open Specpmt
module S = Svc.Service
module Sc = Svc.Scenario

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let fresh keys =
  let pm = Pmem.create ~seed:1 Pmem_config.default in
  S.create (Heap.create pm) (Ycsb.cfg keys)

let driver_fidelity () =
  let keys = 1024 and ops = 3000 in
  List.iter
    (fun mix ->
      let stream = Sc.op_stream (Sc.spec mix) ~ops ~keys ~seed:7 in
      let model = Model.build ~shards:4 ~keys stream in
      List.iter
        (fun rate ->
          let cfg = { Svc.Openloop.rate; arrivals = Svc.Openloop.Poisson; seed = 7 } in
          let o = Svc.Openloop.run (fresh keys) cfg stream in
          let sched = Svc.Openloop.schedule cfg ~n:ops in
          let d = Driver.run ~sched (fresh keys) stream model in
          check
            (Printf.sprintf "driver = Openloop.run (mix %s, rate %g)" (Sc.mix_to_string mix) rate)
            (o.Svc.Openloop.span_ns = d.Driver.span_ns
            && o.Svc.Openloop.fences = d.Driver.dev.Stats.fences
            && o.Svc.Openloop.attempts = d.Driver.attempts
            && o.Svc.Openloop.rejects = d.Driver.rejects
            && o.Svc.Openloop.latency = d.Driver.hist);
          check
            (Printf.sprintf "model agrees with the service (mix %s, rate %g)" (Sc.mix_to_string mix) rate)
            (d.Driver.wrong = 0 && d.Driver.unacked = 0))
        [ 0.0; 2.0e6 ])
    [ Sc.A; Sc.E; Sc.F ]

let stamp_fidelity () =
  List.iter
    (fun w ->
      let m = Run.run ~scheme:Stamp.scheme w Workload.Quick in
      let a = Stamp.run_app ~recover:false ~scale:Workload.Quick ~pad:0 ~scheme:Stamp.scheme w in
      check
        (Printf.sprintf "stamp path = Run.run (%s)" w.Workload.name)
        (m.Run.ns = a.Stamp.d.Stats.ns
        && m.Run.fences = a.Stamp.d.Stats.fences
        && m.Run.checksum = a.Stamp.checksum))
    Workload.all

let corruption_counted () =
  let keys = 512 and ops = 500 in
  let stream = Sc.op_stream (Sc.spec Sc.F) ~ops ~keys ~seed:3 in
  let model = Model.build ~shards:4 ~keys stream in
  let expect = Array.copy model.Model.expect in
  expect.(ops / 2) <- expect.(ops / 2) + 1;
  let svc = fresh keys in
  let d = Driver.run ~sched:(Array.make ops 0.0) svc stream { model with Model.expect } in
  check "a corrupted completion is counted" (d.Driver.wrong = 1);
  let final = Array.copy model.Model.final in
  final.(7) <- final.(7) + 1;
  check "a corrupted cell fails the audit"
    (Model.audit model (S.peek svc) = 0
    && Model.audit { model with Model.final } (S.peek svc) = 1)

(* Syntax check of a JSON text (the trace file). *)
let json_ok s =
  let n = String.length s and i = ref 0 in
  let peek () = if !i < n then s.[!i] else '\000' in
  let ws () =
    while !i < n && String.contains " \n\r\t" s.[!i] do
      incr i
    done
  in
  let eat c = if peek () = c then incr i else raise Exit in
  let lit l =
    let k = String.length l in
    if !i + k <= n && String.sub s !i k = l then i := !i + k else raise Exit
  in
  let str () =
    eat '"';
    while peek () <> '"' do
      if !i >= n then raise Exit;
      if peek () = '\\' then incr i;
      incr i
    done;
    incr i
  in
  let number () =
    let st = !i in
    while !i < n && String.contains "0123456789+-.eE" s.[!i] do
      incr i
    done;
    ignore (float_of_string (String.sub s st (!i - st)))
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr i;
        ws ();
        if peek () = '}' then incr i else members ()
    | '[' ->
        incr i;
        ws ();
        if peek () = ']' then incr i else elements ()
    | '"' -> str ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | _ -> number ()
  and members () =
    ws ();
    str ();
    ws ();
    eat ':';
    value ();
    ws ();
    match peek () with
    | ',' ->
        incr i;
        members ()
    | _ -> eat '}'
  and elements () =
    value ();
    ws ();
    match peek () with
    | ',' ->
        incr i;
        elements ()
    | _ -> eat ']'
  in
  match
    value ();
    ws ()
  with
  | () -> !i = n
  | exception _ -> false

let trace_conservation () =
  let t = Spans.create () in
  let o = Ycsb.run ~trace:t ~seed:5 ~seconds:0 { Ycsb.a_large with Ycsb.ops = 2_000 } in
  let c = Spans.conservation t in
  check "traced ycsb-a-large is correct" o.Report.correct;
  check "modelled self times + outside = device clock advance" (Spans.conserved c && c.Spans.advance > 0.0);
  check "every span chains to an op id" (Spans.chains t && t.Spans.dropped = 0);
  let path = "selftest-trace.json" in
  Spans.write t path;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check "trace JSON parses" (json_ok s);
  check "probe replay spans present"
    (List.for_all
       (fun n -> Spans.count t n > 0)
       [ "gc.batch"; "gc.seal"; "txn.write"; "txn.read"; "index.ensure"; "recover.log"; "recover.index"; "svc.submit"; "svc.drain" ])

let run () =
  driver_fidelity ();
  stamp_fidelity ();
  corruption_counted ();
  trace_conservation ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failures\n" !failures;
    exit 1
  end
