open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_backends
module Metrics = Specpmt_obs.Metrics

(* The sharded KV service: a router hashing keys to shards, each shard
   owning one Spec_soft runtime (one per-thread log of the multi-threaded
   pool), a bounded admission queue and a group-commit batcher.  The
   store itself is a flat table of [keys] 8-byte cells in the persistent
   heap; key [k] lives at [base + 8k] and is owned by exactly one shard
   (shard-of-key hashing), so shards never contend on a cell and the
   per-thread logs stay disjoint. *)

type op =
  | Read
  | Write of int
  | Rmw of int
  | Scan of int

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
  gc : Group_commit.t;
  lat : Specpmt_obs.Hist.t;  (** per-op latency, simulated ns *)
  mutable ops : int;
}

type t = {
  pm : Pmem.t;
  heap : Heap.t;
  cfg : config;
  pool : Spec_mt.t;
  base : Addr.t;
  shard_tbl : shard array;
  owned : int array array;  (* shard -> its keys, ascending *)
  shadow : bool;  (* DRAM mirrors on the ordered index *)
  mutable oidx : Oindex.t;  (* per-shard ordered index; rebuilt on recover *)
}

(* Multiplicative hash (Knuth's 2^32 ratio): the product is masked to
   the intended 32-bit hash before the shift.  The parentheses are
   load-bearing — [lsr] binds tighter than [*] in OCaml, so the
   unparenthesized [k * 2654435761 lsr 13 mod shards] multiplies by
   [2654435761 lsr 13 = 324027 = 27 * 11 * 1091] instead, and any shard
   count dividing 324027 (3, 9, 11, 27, 33...) routes every key to
   shard 0. *)
let route ~shards k = ((k * 2654435761) land 0xFFFF_FFFF) lsr 13 mod shards
let shard_of_key t k = route ~shards:t.cfg.shards k
let key_addr t k = t.base + (k * 8)

let create ?params ?(shadow = true) heap cfg =
  if cfg.shards < 1 || cfg.shards > Spec_mt.max_threads then
    Fmt.invalid_arg "Service.create: 1-%d shards" Spec_mt.max_threads;
  if cfg.batch_max < 1 then invalid_arg "Service.create: batch_max < 1";
  if cfg.keys < 1 then invalid_arg "Service.create: keys < 1";
  let pool = Spec_mt.create ?params heap ~threads:cfg.shards in
  let base = Heap.alloc heap (cfg.keys * 8) in
  (* per-shard ownership tables, built once: ascending owned-key rows
     that adoption iterates *)
  let owned_rev = Array.make cfg.shards [] in
  for k = cfg.keys - 1 downto 0 do
    let s = route ~shards:cfg.shards k in
    owned_rev.(s) <- k :: owned_rev.(s)
  done;
  let owned = Array.map Array.of_list owned_rev in
  (* Adoption (Section 4.3.2): a cell must be logged once before
     speculative logging can revoke an uncommitted in-place update to
     it.  One committed transaction per shard writes 0 to every key it
     owns — without this, a crash during the first ever write to a key
     would leave a torn value recovery cannot revert.  Adoption does
     NOT populate the ordered index: an unwritten key is absent from
     scans, exactly YCSB-E's insert-frontier semantics. *)
  Array.iteri
    (fun id row ->
      match row with
      | [||] -> ()
      | row ->
          (Spec_mt.thread pool id).Specpmt_txn.Ctx.run_tx (fun ctx ->
              Array.iter
                (fun k -> ctx.Specpmt_txn.Ctx.write (base + (k * 8)) 0)
                row))
    owned;
  let oidx = Oindex.create ~shadow heap ~pool ~shards:cfg.shards ~keys:cfg.keys in
  {
    pm = Heap.pmem heap;
    heap;
    cfg;
    pool;
    base;
    owned;
    shadow;
    oidx;
    shard_tbl =
      Array.init cfg.shards (fun id ->
          {
            id;
            adm = Admission.create ~depth:cfg.depth;
            gc =
              Group_commit.create
                ~backend:(Spec_mt.thread pool id)
                ~rt:(Spec_mt.runtime pool id);
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
  let v = Admission.offer s.adm { client; key; op; enq_ns = now t } in
  (match v with
  | Admission.Rejected _ -> (* per-use lookup: metric cells are domain-local *)
      Metrics.incr (Metrics.counter "svc.rejected")
  | Admission.Accepted -> ());
  v

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
      (* one closure for the whole batch, fed per-op state through the
         captured cells — the serial twin of the dataplane worker loop *)
      let cur_key = ref 0 and cur_op = ref Read and cur_i = ref 0 in
      let job ctx =
        match !cur_op with
        | Write v ->
            let a = key_addr t !cur_key in
            (* first client write indexes the key, same transaction as
               the cell store: entry and cell are atomic together *)
            Oindex.ensure ctx t.oidx ~shard:s.id ~key:!cur_key ~addr:a;
            ctx.Specpmt_txn.Ctx.write a v;
            results.(!cur_i) <- v
        | Read ->
            results.(!cur_i) <- ctx.Specpmt_txn.Ctx.read (key_addr t !cur_key)
        | Rmw d ->
            (* read-modify-write as ONE transaction: read and dependent
               write under the same speculative record *)
            let a = key_addr t !cur_key in
            Oindex.ensure ctx t.oidx ~shard:s.id ~key:!cur_key ~addr:a;
            let v = ctx.Specpmt_txn.Ctx.read a + d in
            ctx.Specpmt_txn.Ctx.write a v;
            results.(!cur_i) <- v
        | Scan len ->
            (* real ordered scan over the shard's Pbtree: up to [len]
               populated keys from the anchor, checksummed (read-only
               transaction, so it abandons its empty record unfenced) *)
            results.(!cur_i) <-
              Oindex.scan ctx t.oidx ~shard:s.id ~anchor:!cur_key ~len
      in
      Group_commit.batch_begin s.gc;
      List.iteri
        (fun i r ->
          cur_key := r.key;
          cur_op := r.op;
          cur_i := i;
          Group_commit.exec s.gc job)
        reqs;
      Group_commit.batch_end s.gc ~n;
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
        Metrics.set_gauge (Metrics.gauge "svc.queue_depth")
          (float_of_int (Admission.queued s.adm));
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
  Spec_mt.recover t.pool;
  Array.iter
    (fun s ->
      Admission.clear s.adm;
      Group_commit.reset s.gc)
    t.shard_tbl;
  (* rediscover the ordered index from its root slot: fresh tree
     handles off the replayed media, fresh populated bitmap, fresh
     mirrors (a pre-crash mirror is never reused) *)
  t.oidx <-
    Oindex.recover ~shadow:t.shadow ~pool:t.pool t.heap ~shards:t.cfg.shards
      ~keys:t.cfg.keys

let peek t k =
  if k < 0 || k >= t.cfg.keys then invalid_arg "Service.peek: bad key";
  Pmem.peek_volatile_int t.pm (key_addr t k)

let sealing t i = Group_commit.sealing t.shard_tbl.(i).gc

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
  let s = t.shard_tbl.(i) in
  {
    s_id = s.id;
    s_ops = s.ops;
    s_accepted = Admission.accepted s.adm;
    s_rejected = Admission.rejected s.adm;
    s_acked = Admission.acked s.adm;
    s_max_inflight = Admission.max_inflight s.adm;
    s_batches = Group_commit.batches s.gc;
    s_sealed = Group_commit.sealed_records s.gc;
    s_latency = Specpmt_obs.Hist.snapshot s.lat;
  }

let owned_keys t i =
  if i < 0 || i >= t.cfg.shards then invalid_arg "Service.owned_keys: bad shard";
  Array.copy t.owned.(i)

let oindex t = t.oidx
