(** Persistent ordered map (treap with deterministic priorities).

    The vacation benchmark's relational tables are red-black trees in
    STAMP; a treap gives the same O(log n) ordered-map behaviour with much
    simpler (and therefore smaller-write-set) rebalancing, and its
    priorities are a hash of the key, keeping runs deterministic.

    Layout: root cell [root]; node [key; value; prio; left; right]. *)

open Specpmt_pmem
open Specpmt_txn

type t = { root_cell : Addr.t }

let node_bytes = 40

let prio key =
  let h = (key + 0x9E37) * 0x1B873593 in
  let h = h lxor (h lsr 16) in
  h land 0x3FFFFFFF

let create (ctx : Ctx.ctx) =
  let root_cell = ctx.Ctx.alloc 8 in
  ctx.Ctx.write root_cell 0;
  { root_cell }

let key_ (ctx : Ctx.ctx) n = ctx.Ctx.read n
let value_ (ctx : Ctx.ctx) n = ctx.Ctx.read (n + 8)
let prio_ (ctx : Ctx.ctx) n = ctx.Ctx.read (n + 16)
let left_ (ctx : Ctx.ctx) n = ctx.Ctx.read (n + 24)
let right_ (ctx : Ctx.ctx) n = ctx.Ctx.read (n + 32)

let rec find_node ctx n key =
  if n = 0 then 0
  else
    let k = key_ ctx n in
    if key = k then n
    else if key < k then find_node ctx (left_ ctx n) key
    else find_node ctx (right_ ctx n) key

let find (ctx : Ctx.ctx) t key =
  let n = find_node ctx (ctx.Ctx.read t.root_cell) key in
  if n = 0 then None else Some (value_ ctx n)

let mem ctx t key = find ctx t key <> None

(** Update the value of an existing key; [false] if absent. *)
let update (ctx : Ctx.ctx) t key value =
  let n = find_node ctx (ctx.Ctx.read t.root_cell) key in
  if n = 0 then false
  else begin
    ctx.Ctx.write (n + 8) value;
    true
  end

(* insert by recursion, returning the new subtree root *)
let rec insert_node (ctx : Ctx.ctx) n fresh =
  if n = 0 then fresh
  else
    let k = key_ ctx n and fk = key_ ctx fresh in
    if fk = k then begin
      ctx.Ctx.write (n + 8) (value_ ctx fresh);
      ctx.Ctx.free fresh;
      n
    end
    else if fk < k then begin
      let l = insert_node ctx (left_ ctx n) fresh in
      ctx.Ctx.write (n + 24) l;
      if prio_ ctx l > prio_ ctx n then begin
        (* rotate right *)
        ctx.Ctx.write (n + 24) (right_ ctx l);
        ctx.Ctx.write (l + 32) n;
        l
      end
      else n
    end
    else begin
      let r = insert_node ctx (right_ ctx n) fresh in
      ctx.Ctx.write (n + 32) r;
      if prio_ ctx r > prio_ ctx n then begin
        (* rotate left *)
        ctx.Ctx.write (n + 32) (left_ ctx r);
        ctx.Ctx.write (r + 24) n;
        r
      end
      else n
    end

let insert (ctx : Ctx.ctx) t key value =
  let fresh = ctx.Ctx.alloc node_bytes in
  ctx.Ctx.write fresh key;
  ctx.Ctx.write (fresh + 8) value;
  ctx.Ctx.write (fresh + 16) (prio key);
  ctx.Ctx.write (fresh + 24) 0;
  ctx.Ctx.write (fresh + 32) 0;
  let root = insert_node ctx (ctx.Ctx.read t.root_cell) fresh in
  ctx.Ctx.write t.root_cell root

(* merge two subtrees with all keys of [a] below those of [b] *)
let rec merge (ctx : Ctx.ctx) a b =
  if a = 0 then b
  else if b = 0 then a
  else if prio_ ctx a > prio_ ctx b then begin
    let m = merge ctx (right_ ctx a) b in
    ctx.Ctx.write (a + 32) m;
    a
  end
  else begin
    let m = merge ctx a (left_ ctx b) in
    ctx.Ctx.write (b + 24) m;
    b
  end

let remove (ctx : Ctx.ctx) t key =
  let rec go n =
    (* returns (new subtree, removed?) *)
    if n = 0 then (0, false)
    else
      let k = key_ ctx n in
      if key = k then (merge ctx (left_ ctx n) (right_ ctx n), true)
      else if key < k then begin
        let l, r = go (left_ ctx n) in
        if r then ctx.Ctx.write (n + 24) l;
        (n, r)
      end
      else begin
        let rsub, r = go (right_ ctx n) in
        if r then ctx.Ctx.write (n + 32) rsub;
        (n, r)
      end
  in
  let root, removed = go (ctx.Ctx.read t.root_cell) in
  if removed then ctx.Ctx.write t.root_cell root;
  removed

(** Smallest key >= [key], with its value. *)
let find_ceiling (ctx : Ctx.ctx) t key =
  let rec go n best =
    if n = 0 then best
    else
      let k = key_ ctx n in
      if k = key then Some (k, value_ ctx n)
      else if k < key then go (right_ ctx n) best
      else go (left_ ctx n) (Some (k, value_ ctx n))
  in
  go (ctx.Ctx.read t.root_cell) None

let iter (ctx : Ctx.ctx) t f =
  let rec go n =
    if n <> 0 then begin
      go (left_ ctx n);
      f (key_ ctx n) (value_ ctx n);
      go (right_ ctx n)
    end
  in
  go (ctx.Ctx.read t.root_cell)

let fold ctx t f acc =
  let acc = ref acc in
  iter ctx t (fun k v -> acc := f k v !acc);
  !acc

let length ctx t = fold ctx t (fun _ _ n -> n + 1) 0
