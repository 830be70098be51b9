open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_backends

(* The serial executor: the per-shard core (Shards) run inline over a
   flat table of [keys] 8-byte cells in the shared heap, key [k] at
   [base + 8k], plus admission, completions and latency. *)

type op = Shards.op = Read | Write of int | Rmw of int | Scan of int

type request = {
  client : int;
  key : int;
  op : op;
  enq_ns : float;  (** simulated time at admission *)
}

type completion = {
  c_client : int;
  c_shard : int;
  c_key : int;
  c_op : op;
  value : int;  (** value read, or value written *)
  c_enq_ns : float;
  ack_ns : float;  (** simulated time when the commit fence retired *)
}

type config = {
  shards : int;
  batch_max : int;  (** transactions per group-commit batch *)
  depth : int;  (** per-shard admission (inflight) bound *)
  keys : int;
}

type shard = {
  id : int;
  adm : request Admission.t;
  lat : Specpmt_obs.Hist.t;  (** per-op latency, simulated ns *)
  mutable ops : int;
}

type t = {
  pm : Pmem.t;
  cfg : config;
  core : Shards.t;
  shard_tbl : shard array;
}

let route = Shards.route
let shard_of_key t k = route ~shards:t.cfg.shards k

let create ?params ?(shadow = true) heap cfg =
  let rows = Shards.rows ~shards:cfg.shards ~keys:cfg.keys in
  if cfg.batch_max < 1 then invalid_arg "Service.create: batch_max < 1";
  Shards.building @@ fun () ->
  let pool = Spec_mt.create ?params heap ~threads:cfg.shards in
  let base = Heap.alloc heap (cfg.keys * 8) in
  let cells = Array.init cfg.keys (fun k -> base + (k * 8)) in
  {
    pm = Heap.pmem heap;
    cfg;
    core = Shards.create ~shadow heap ~pool ~rows ~cells;
    shard_tbl =
      Array.init cfg.shards (fun id ->
          {
            id;
            adm = Admission.create ~depth:cfg.depth;
            lat = Specpmt_obs.Hist.create ();
            ops = 0;
          });
  }

let config t = t.cfg
let pm t = t.pm
let now t = (Pmem.stats t.pm).Stats.ns

let submit t ~client ~key op =
  if key < 0 || key >= t.cfg.keys then invalid_arg "Service.submit: bad key";
  (match op with
  | Scan len when len < 1 -> invalid_arg "Service.submit: scan length < 1"
  | _ -> ());
  let s = t.shard_tbl.(shard_of_key t key) in
  Admission.offer s.adm { client; key; op; enq_ns = now t }

(* Execute one batch on shard [s]: every request becomes one transaction
   (reads abandon their empty record and cost no fence), the batcher
   seals them under a single fence, and only then are the requests
   acknowledged — an ack therefore always names a durable op. *)
let exec_batch t s reqs =
  match reqs with
  | [] -> []
  | reqs ->
      let n = List.length reqs in
      let results = Array.make n 0 in
      Shards.batch_begin t.core s.id;
      List.iteri
        (fun i r -> results.(i) <- Shards.exec t.core s.id ~key:r.key r.op)
        reqs;
      Shards.batch_end t.core s.id ~n;
      Admission.ack s.adm n;
      let t_ack = now t in
      List.mapi
        (fun i r ->
          s.ops <- s.ops + 1;
          Specpmt_obs.Hist.observe s.lat
            (int_of_float (t_ack -. r.enq_ns));
          {
            c_client = r.client;
            c_shard = s.id;
            c_key = r.key;
            c_op = r.op;
            value = results.(i);
            c_enq_ns = r.enq_ns;
            ack_ns = t_ack;
          })
        reqs

let drain ?(on_ack = fun (_ : completion) -> ()) t =
  let acc = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun s ->
        match Admission.take_up_to s.adm t.cfg.batch_max with
        | [] -> ()
        | reqs ->
            progress := true;
            (* acks fire per batch, right after its fence: a crash later
               in the same drain must not lose already-durable acks *)
            List.iter
              (fun c ->
                on_ack c;
                acc := c :: !acc)
              (exec_batch t s reqs))
      t.shard_tbl
  done;
  List.rev !acc

let recover t =
  Shards.recover t.core;
  (* queued and executing requests died unacknowledged *)
  Array.iter (fun s -> Admission.clear s.adm) t.shard_tbl

let peek t k =
  if k < 0 || k >= t.cfg.keys then invalid_arg "Service.peek: bad key";
  Pmem.peek_volatile_int t.pm (Shards.cell t.core k)

let sealing t i = Group_commit.sealing (Shards.batcher t.core i)

type shard_stats = {
  s_id : int;
  s_ops : int;
  s_accepted : int;
  s_rejected : int;
  s_acked : int;
  s_max_inflight : int;
  s_batches : int;
  s_sealed : int;
  s_latency : Specpmt_obs.Hist.snapshot;
}

let shard_stats t i =
  let s = t.shard_tbl.(i) and gc = Shards.batcher t.core i in
  {
    s_id = s.id;
    s_ops = s.ops;
    s_accepted = Admission.accepted s.adm;
    s_rejected = Admission.rejected s.adm;
    s_acked = Admission.acked s.adm;
    s_max_inflight = Admission.max_inflight s.adm;
    s_batches = Group_commit.batches gc;
    s_sealed = Group_commit.sealed_records gc;
    s_latency = Specpmt_obs.Hist.snapshot s.lat;
  }

let owned_keys t i =
  if i < 0 || i >= t.cfg.shards then invalid_arg "Service.owned_keys: bad shard";
  Array.copy (Shards.row t.core i)

let oindex t = Shards.index t.core
