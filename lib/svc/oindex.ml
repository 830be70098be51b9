open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_backends
open Specpmt_txn
open Specpmt_pstruct

(* Per-shard Pbtree over the key table: trees allocate from their
   shard's runtime heap through that shard's backend, the directory
   block and root slot live in the parent heap.  See oindex.mli. *)

type t = {
  trees : Pbtree.t array;  (* shard -> its ordered index *)
  populated : Bytes.t;  (* key -> has a client write indexed it? *)
  shards : int;
  keys : int;
}

(* directory block: [shards; keys; order; header_0; ...] *)
let dir_shards d = d
let dir_keys d = d + 8
let dir_order d = d + 16
let dir_hdr d s = d + 24 + (8 * s)
let dir_bytes shards = 24 + (8 * shards)

(* Attach each shard's DRAM mirror with an unmetered peek through that
   shard's OWN runtime view: in the data plane tree cells may still sit
   dirty in the worker view's cache, and only the owning view observes
   them — a parent-view peek could rebuild from stale media. *)
let attach_mirrors ~pool trees =
  Array.iteri
    (fun s tree ->
      let view = Spec_soft.pmem (Spec_mt.runtime pool s) in
      Pbtree.attach_shadow (Ctx.peek_ctx view) tree)
    trees

(* the order of every shard's tree, which the directory persists *)
let order = 8

let create ?(shadow = true) heap ~pool ~shards ~keys =
  let trees =
    Array.init shards (fun s ->
        (Spec_mt.thread pool s).Ctx.run_tx (fun ctx ->
            Pbtree.create ~order ctx ()))
  in
  (* the directory is parent-heap state like the root slot itself:
     written raw (not transactionally) and made durable under one
     fence, before any client transaction can depend on it *)
  let pm = Heap.pmem heap in
  let dir = Heap.alloc heap (dir_bytes shards) in
  Pmem.store_int pm (dir_shards dir) shards;
  Pmem.store_int pm (dir_keys dir) keys;
  Pmem.store_int pm (dir_order dir) order;
  Array.iteri
    (fun s tree -> Pmem.store_int pm (dir_hdr dir s) (Pbtree.header tree))
    trees;
  Pmem.flush_range pm dir (dir_bytes shards);
  let slot = Heap.root_slot heap Slots.svc_index in
  Pmem.store_int pm slot dir;
  Pmem.clwb pm slot;
  Pmem.sfence pm;
  if shadow then attach_mirrors ~pool trees;
  { trees; populated = Bytes.make keys '\000'; shards; keys }

let recover ?(shadow = true) ~pool heap ~shards ~keys =
  let pm = Heap.pmem heap in
  let ctx = Ctx.peek_ctx pm in
  let dir = ctx.Ctx.read (Heap.root_slot heap Slots.svc_index) in
  if dir = 0 then invalid_arg "Oindex.recover: empty svc_index root slot";
  let d_shards = ctx.Ctx.read (dir_shards dir) in
  let d_keys = ctx.Ctx.read (dir_keys dir) in
  if d_shards <> shards || d_keys <> keys then
    Fmt.invalid_arg
      "Oindex.recover: directory says %d shards / %d keys, expected %d / %d"
      d_shards d_keys shards keys;
  let trees =
    Array.init shards (fun s -> Pbtree.of_header ctx (ctx.Ctx.read (dir_hdr dir s)))
  in
  let populated = Bytes.make keys '\000' in
  Array.iter
    (fun tree ->
      Pbtree.iter ctx tree (fun k _addr -> Bytes.set populated k '\001'))
    trees;
  (* a pre-crash mirror is never trusted: rebuild each shard's mirror
     from the replayed image, through the shard's runtime view *)
  if shadow then attach_mirrors ~pool trees;
  { trees; populated; shards; keys }

let ensure ctx t ~shard ~key ~addr =
  if Bytes.get t.populated key = '\000' then begin
    Pbtree.insert ctx t.trees.(shard) key addr;
    (* volatile mark, set inside the transaction: if the tx never
       commits the whole run is dead and recovery rebuilds the bitmap
       from the trees, erasing any stale mark *)
    Bytes.set t.populated key '\001'
  end

let scan (ctx : Ctx.ctx) t ~shard ~anchor ~len =
  let acc = ref 0 and left = ref len in
  Pbtree.iter_from ctx t.trees.(shard) ~lo:anchor (fun k addr ->
      acc := ((!acc * 31) + k + ctx.Ctx.read addr) land max_int;
      decr left;
      !left > 0);
  !acc

let is_populated t k = Bytes.get t.populated k = '\001'

let populated_count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr n) t.populated;
  !n

let tree t s = t.trees.(s)

let publish_shadow t ~shard =
  match Pbtree.shadow t.trees.(shard) with
  | Some sh -> Shadow.publish sh
  | None -> ()
