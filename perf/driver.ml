(* The harness's open-loop driver over [Service.submit] / [Service.drain].

   It follows [Openloop.run] step for step — same schedule, per-shard
   FIFO backlogs, re-offer after a shed, virtual clock = device ns plus
   an idle jump — so its span, fences, attempts, rejects and latency
   histogram equal [Openloop.run]'s (the self-test checks this).  What it
   adds: one exact sched->ack latency per op, so percentiles come from
   sorted samples instead of log2 buckets; a check of every completion
   against the reference model; the reference kernel between drains;
   optional spans around every submit and drain; and the batch order the
   layer probe replays. *)

open Specpmt
module S = Svc.Service

type result = {
  attempts : int;
  rejects : int;
  max_backlog : int;
  span_ns : float;
  dev : Stats.t;  (** device counters over the run *)
  lat : float array;  (** sched->ack ns per stream index *)
  hist : Obs.Hist.snapshot;  (** the same latencies as [Openloop.run] buckets them *)
  wrong : int;  (** completions that differ from the model or ack twice *)
  unacked : int;
  drain_sim_ns : float;  (** device time spent inside [drain] *)
  batches : (int * int array) list;
      (** (shard, stream indices) in execution order, when recorded *)
}

(* Split one drain's completions (shard, index, in ack order) into its
   batches: a shard's consecutive completions come from consecutive
   [batch_max] takes of its FIFO queue. *)
let batches_of ~batch_max acks =
  let rec runs acc = function
    | [] -> List.rev acc
    | (s, _) :: _ as l ->
        let rec take run = function
          | (s', i) :: rest when s' = s -> take (i :: run) rest
          | rest -> (List.rev run, rest)
        in
        let run, rest = take [] l in
        let rec chunk acc = function
          | [] -> acc
          | l ->
              let b = List.filteri (fun j _ -> j < batch_max) l in
              let rest = List.filteri (fun j _ -> j >= batch_max) l in
              chunk ((s, Array.of_list b) :: acc) rest
        in
        runs (chunk acc run) rest
  in
  runs [] acks

let run ?spans ?(record_batches = false) ~sched svc stream (model : Model.t) =
  let n = Array.length stream in
  if n = 0 || Array.length sched <> n then invalid_arg "Driver.run: stream/schedule";
  let cfg = S.config svc in
  let pm = S.pm svc in
  let dev () = (Pmem.stats pm).Stats.ns in
  let voff = ref (0.0 -. dev ()) in
  let vnow () = dev () +. !voff in
  let backlog = Array.init cfg.S.shards (fun _ -> Queue.create ()) in
  let backlog_len = ref 0 and max_backlog = ref 0 in
  let next = ref 0 and completed = ref 0 in
  let attempts = ref 0 and rejects = ref 0 in
  let lat = Array.make n nan in
  let acked = Bytes.make n '\000' in
  let wrong = ref 0 in
  let hist = Obs.Hist.create () in
  let drain_sim = ref 0.0 in
  let cur = ref [] and batches = ref [] in
  let on_ack (c : S.completion) =
    incr completed;
    let idx = c.S.c_client in
    if Bytes.get acked idx <> '\000' || c.S.value <> model.Model.expect.(idx)
    then incr wrong;
    Bytes.set acked idx '\001';
    let l = c.S.ack_ns +. !voff -. sched.(idx) in
    lat.(idx) <- l;
    Obs.Hist.observe hist (int_of_float l);
    if record_batches then cur := (c.S.c_shard, idx) :: !cur
  in
  let submit_id, drain_id =
    match spans with
    | Some t -> (Spans.id t "svc.submit", Spans.id t "svc.drain")
    | None -> (0, 0)
  in
  let first_accepted = ref 0 in
  let before = Stats.copy (Pmem.stats pm) in
  (* once every op is submitted and a drain has run, nothing more can be
     acknowledged: ops still unacked then are lost, not late *)
  let finished = ref false in
  while !completed < n && not !finished do
    if !backlog_len = 0 && !next < n && sched.(!next) > vnow () then begin
      voff := sched.(!next) -. dev ();
      while vnow () < sched.(!next) do
        voff := Float.succ !voff
      done
    end;
    while !next < n && sched.(!next) <= vnow () do
      let key, _ = stream.(!next) in
      Queue.add !next backlog.(S.shard_of_key svc key);
      incr backlog_len;
      incr next
    done;
    if !backlog_len > !max_backlog then max_backlog := !backlog_len;
    let round_first = ref (-1) in
    Array.iter
      (fun q ->
        let blocked = ref false in
        while (not !blocked) && not (Queue.is_empty q) do
          let idx = Queue.peek q in
          let key, op = stream.(idx) in
          incr attempts;
          (match spans with Some t -> Spans.enter t submit_id ~op:idx | None -> ());
          let v = S.submit svc ~client:idx ~key op in
          (match spans with Some t -> Spans.leave t | None -> ());
          match v with
          | Svc.Admission.Accepted ->
              ignore (Queue.pop q);
              decr backlog_len;
              if !round_first < 0 || idx < !round_first then round_first := idx
          | Svc.Admission.Rejected _ ->
              incr rejects;
              blocked := true
        done)
      backlog;
    if !round_first >= 0 then first_accepted := !round_first;
    let d0 = dev () in
    (match spans with Some t -> Spans.enter t drain_id ~op:!first_accepted | None -> ());
    ignore (S.drain ~on_ack svc);
    (match spans with Some t -> Spans.leave t | None -> ());
    drain_sim := !drain_sim +. (dev () -. d0);
    if record_batches then begin
      batches := List.rev_append (batches_of ~batch_max:cfg.S.batch_max (List.rev !cur)) !batches;
      cur := []
    end;
    finished := !next = n && !backlog_len = 0;
    Host.tick ()
  done;
  let unacked = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr unacked) acked;
  {
    attempts = !attempts;
    rejects = !rejects;
    max_backlog = !max_backlog;
    span_ns = vnow ();
    dev = Stats.diff before (Pmem.stats pm);
    lat;
    hist = Obs.Hist.snapshot hist;
    wrong = !wrong;
    unacked = !unacked;
    drain_sim_ns = !drain_sim;
    batches = List.rev !batches;
  }
