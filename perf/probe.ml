(* The layer probe: rebuild the KV service from its public parts and
   replay a recorded batch order with a span around each layer.

   [Service.create] is a Spec_mt pool, the key table, one adoption
   transaction per shard and the ordered index; a shard's batch is
   [Group_commit.batch_begin], one [exec] per request, [batch_end].  The
   probe makes exactly those calls in the same order on a fresh device,
   so its device clock must advance exactly as the service's drains did
   (probe.sim_ratio = 1).  Spans nest as gc.batch > txn.<kind> >
   index.ensure | index.scan, plus gc.seal; a crash at the end is
   followed by recover.log (the log replay) and recover.index. *)

open Specpmt
module S = Svc.Service

type t = {
  replay_sim_ns : float;  (** device time of the replayed batches *)
  txs : int;
  wrong : int;  (** replayed results that differ from the model *)
  log_bytes : int;  (** growth of the shards' log footprints over the replay *)
}

let run sp (cfg : S.config) stream (model : Model.t) batches =
  let shards = cfg.S.shards and keys = cfg.S.keys in
  let pm = Pmem.create ~seed:1 Pmem_config.default in
  let heap = Heap.create pm in
  (* Service.create, call for call *)
  let pool = Spec_mt.create heap ~threads:shards in
  let base = Heap.alloc heap (keys * 8) in
  let addr k = base + (k * 8) in
  let owned = Array.make shards [] in
  for k = keys - 1 downto 0 do
    let s = S.route ~shards k in
    owned.(s) <- k :: owned.(s)
  done;
  Array.iteri
    (fun s row ->
      if row <> [] then
        (Spec_mt.thread pool s).Ctx.run_tx (fun ctx ->
            List.iter (fun k -> ctx.Ctx.write (addr k) 0) row))
    owned;
  let oidx = Svc.Oindex.create ~shadow:true heap ~pool ~shards ~keys in
  let gcs =
    Array.init shards (fun s ->
        Svc.Group_commit.create ~backend:(Spec_mt.thread pool s)
          ~rt:(Spec_mt.runtime pool s))
  in
  Spans.set_device sp pm;
  let id = Spans.id sp in
  let batch_id = id "gc.batch" and seal_id = id "gc.seal" in
  let read_id = id "txn.read" and write_id = id "txn.write" in
  let rmw_id = id "txn.rmw" and scan_id = id "txn.scan" in
  let ensure_id = id "index.ensure" and iscan_id = id "index.scan" in
  (* one reusable transaction body, as in the service's executor *)
  let cur_key = ref 0 and cur_shard = ref 0 and cur_op = ref S.Read in
  let result = ref 0 in
  let ensure ctx a =
    Spans.enter sp ensure_id ~op:(-1);
    Svc.Oindex.ensure ctx oidx ~shard:!cur_shard ~key:!cur_key ~addr:a;
    Spans.leave sp
  in
  let job ctx =
    match !cur_op with
    | S.Write v ->
        let a = addr !cur_key in
        ensure ctx a;
        ctx.Ctx.write a v;
        result := v
    | S.Read -> result := ctx.Ctx.read (addr !cur_key)
    | S.Rmw d ->
        let a = addr !cur_key in
        ensure ctx a;
        let v = ctx.Ctx.read a + d in
        ctx.Ctx.write a v;
        result := v
    | S.Scan len ->
        Spans.enter sp iscan_id ~op:(-1);
        result := Svc.Oindex.scan ctx oidx ~shard:!cur_shard ~anchor:!cur_key ~len;
        Spans.leave sp
  in
  let txs = ref 0 and wrong = ref 0 and log_bytes = ref 0 and last = ref 0 in
  let sim0 = (Pmem.stats pm).Stats.ns in
  List.iter
    (fun (s, idxs) ->
      let gc = gcs.(s) in
      Spans.enter sp batch_id ~op:idxs.(0);
      Svc.Group_commit.batch_begin gc;
      Array.iter
        (fun idx ->
          let key, op = stream.(idx) in
          cur_key := key;
          cur_shard := s;
          cur_op := op;
          let fp0 = (Svc.Group_commit.backend gc).Ctx.log_footprint () in
          Spans.enter sp
            (match op with
            | S.Read -> read_id
            | S.Write _ -> write_id
            | S.Rmw _ -> rmw_id
            | S.Scan _ -> scan_id)
            ~op:idx;
          Svc.Group_commit.exec gc job;
          Spans.leave sp;
          log_bytes :=
            !log_bytes
            + max 0 ((Svc.Group_commit.backend gc).Ctx.log_footprint () - fp0);
          if !result <> model.Model.expect.(idx) then incr wrong;
          incr txs;
          last := idx)
        idxs;
      Spans.enter sp seal_id ~op:(-1);
      Svc.Group_commit.batch_end gc ~n:(Array.length idxs);
      Spans.leave sp;
      Spans.leave sp)
    batches;
  let replay_sim_ns = (Pmem.stats pm).Stats.ns -. sim0 in
  (* S.recover, call for call, after a crash following the last op *)
  Pmem.crash pm;
  Spans.span (Some sp) "recover.log" ~op:!last (fun () -> Spec_mt.recover pool);
  Array.iter Svc.Group_commit.reset gcs;
  Spans.span (Some sp) "recover.index" ~op:!last (fun () ->
      ignore (Svc.Oindex.recover ~shadow:true ~pool heap ~shards ~keys));
  let wrong = !wrong + Model.audit model (fun k -> Pmem.peek_volatile_int pm (addr k)) in
  {
    replay_sim_ns;
    txs = !txs;
    wrong;
    log_bytes = !log_bytes;
  }
