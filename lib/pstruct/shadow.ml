(** DRAM shadow mirror storage for {!Pbtree} — see shadow.mli. *)

open Specpmt_pmem
open Specpmt_txn

type node = {
  mutable meta : int;
  mutable high : int;
  mutable right : int;
  keys : int array;
  pays : int array;
}

type t = {
  order : int;
  base : (Addr.t, node) Hashtbl.t;
      (* the committed image: coherent with the media state a fresh
         unmetered rebuild would observe *)
  stage : (Addr.t, node) Hashtbl.t;
      (* copy-on-write overlay of the open transaction: applied to
         [base] on commit, dropped wholesale on abort or crash *)
  mutable root : int;
  mutable count : int;
  mutable stage_root : int; (* -1 = no staged root *)
  mutable stage_count : int; (* min_int = no staged count *)
  mutable armed : bool;
      (* an outcome hook for the open transaction is registered; reset
         when it fires, so each transaction registers exactly one *)
  (* plain ints on the hot path; [publish] pushes the deltas into the
     domain-local metrics registry *)
  mutable hits : int;
  mutable misses : int;
  mutable rebuild_ns : int;
  mutable pub_hits : int;
  mutable pub_misses : int;
  mutable pub_rebuild_ns : int;
}

let create ~order ~root ~count =
  {
    order;
    base = Hashtbl.create 256;
    stage = Hashtbl.create 16;
    root;
    count;
    stage_root = -1;
    stage_count = min_int;
    armed = false;
    hits = 0;
    misses = 0;
    rebuild_ns = 0;
    pub_hits = 0;
    pub_misses = 0;
    pub_rebuild_ns = 0;
  }

let order t = t.order
let root t = if t.stage_root <> -1 then t.stage_root else t.root
let count t = if t.stage_count <> min_int then t.stage_count else t.count
let size t = Hashtbl.length t.base
let stage_size t = Hashtbl.length t.stage

let fresh_node order =
  {
    meta = 0;
    high = 0;
    right = 0;
    keys = Array.make order 0;
    pays = Array.make order 0;
  }

(* staged view: the overlay wins (a tombstone hides the base node); the
   empty-stage fast path keeps read-only operations at one probe *)
let node t a =
  if Hashtbl.length t.stage = 0 then Hashtbl.find t.base a
  else
    match Hashtbl.find t.stage a with
    | n -> if n.meta < 0 then raise Not_found else n
    | exception Not_found -> Hashtbl.find t.base a

let mem t a = match node t a with _ -> true | exception Not_found -> false
let hit t = t.hits <- t.hits + 1
let miss t = t.misses <- t.misses + 1
let add_rebuild_ns t ns = t.rebuild_ns <- t.rebuild_ns + ns

let load t a =
  let n = fresh_node t.order in
  Hashtbl.replace t.base a n;
  n

(* ---- transactional staging ---- *)

let commit t =
  Hashtbl.iter
    (fun a n ->
      if n.meta < 0 then Hashtbl.remove t.base a
      else Hashtbl.replace t.base a n)
    t.stage;
  Hashtbl.reset t.stage;
  if t.stage_root <> -1 then begin
    t.root <- t.stage_root;
    t.stage_root <- -1
  end;
  if t.stage_count <> min_int then begin
    t.count <- t.stage_count;
    t.stage_count <- min_int
  end;
  t.armed <- false

let abort t =
  Hashtbl.reset t.stage;
  t.stage_root <- -1;
  t.stage_count <- min_int;
  t.armed <- false

(* Register the outcome hook once per transaction.  Callers must stage
   their delta {e before} arming: a non-transactional ctx fires the hook
   immediately, committing whatever is staged at that instant (the node
   object itself moves into [base], so the caller's subsequent field
   stores still land on the committed image — exactly the raw-ctx
   semantics of effects being final when made). *)
let arm t (ctx : Ctx.ctx) =
  if not t.armed then begin
    t.armed <- true;
    ctx.Ctx.on_end (fun ok -> if ok then commit t else abort t)
  end

let stage t ctx a =
  let n =
    match Hashtbl.find t.stage a with
    | n ->
        if n.meta < 0 then begin
          (* address freed then reallocated inside one transaction:
             restart from a fresh node, the tombstone is superseded *)
          let n = fresh_node t.order in
          Hashtbl.replace t.stage a n;
          n
        end
        else n
    | exception Not_found ->
        let n =
          match Hashtbl.find t.base a with
          | b ->
              {
                meta = b.meta;
                high = b.high;
                right = b.right;
                keys = Array.copy b.keys;
                pays = Array.copy b.pays;
              }
          | exception Not_found -> fresh_node t.order
        in
        Hashtbl.replace t.stage a n;
        n
  in
  arm t ctx;
  n

let stage_free t ctx a =
  (match Hashtbl.find t.stage a with
  | n -> n.meta <- -1
  | exception Not_found ->
      let n = fresh_node 0 in
      n.meta <- -1;
      Hashtbl.replace t.stage a n);
  arm t ctx

let stage_root t ctx r =
  t.stage_root <- r;
  arm t ctx

let stage_count t ctx c =
  t.stage_count <- c;
  arm t ctx

(* ---- audits & metrics ---- *)

let totals t = (t.hits, t.misses, t.rebuild_ns)

let publish t =
  let push name now pub =
    if now <> pub then Specpmt_obs.Metrics.add (Specpmt_obs.Metrics.counter name) (now - pub)
  in
  push "shadow.hits" t.hits t.pub_hits;
  push "shadow.misses" t.misses t.pub_misses;
  push "shadow.rebuild_ns" t.rebuild_ns t.pub_rebuild_ns;
  t.pub_hits <- t.hits;
  t.pub_misses <- t.misses;
  t.pub_rebuild_ns <- t.rebuild_ns

(* ---- in-node binary search ---- *)

let lower_bound keys n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get keys mid < key then lo := mid + 1 else hi := mid
  done;
  !lo
