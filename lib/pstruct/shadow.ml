(** DRAM shadow mirror storage for {!Pbtree} — see shadow.mli. *)

open Specpmt_txn

type node = {
  mutable meta : int;
  mutable high : int;
  mutable right : int;
  keys : int array;
  pays : int array;
}

(* Node addresses are word-aligned and a whole node apart, so their low
   bits barely vary: Fibonacci hashing takes the product's bits 32 and
   up, which mix every address bit (as [Log_arena.Lww] does). *)
module Nodes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = ((a lsr 3) * 0x1E3779B97F4A7C15) lsr 32
end)

(* Undo-log entry codes: a non-negative code names a node field —
   [f_meta], [f_high], [f_right], then key slot [i] at [f_keys + i] and
   payload slot [i] at [f_keys + order + i]; the negative ones name the
   header cells and the node table itself. *)
let f_meta = 0
let f_high = 1
let f_right = 2
let f_keys = 3
let u_root = -1
let u_count = -2
let u_fresh = -3 (* a node entered the table: an abort removes it *)
let u_freed = -4 (* a node left the table: an abort puts it back *)

type t = {
  order : int;
  nodes : node Nodes.t;
      (* the live image: committed state plus the open transaction's
         in-place updates *)
  mutable root : int;
  mutable count : int;
  mutable undo : int array;
      (* (address, code, old value) triples, oldest first; emptied by
         commit, replayed newest first by abort.  Reused across
         transactions. *)
  mutable undo_len : int; (* words of [undo] in use *)
  mutable freed : node list;
      (* nodes the open transaction removed, newest first: what its
         [u_freed] entries put back *)
  mutable last_addr : int; (* one-entry lookup memo; -1 when empty *)
  mutable last_node : node;
  mutable armed : bool;
      (* an outcome hook for the open transaction is registered; reset
         when it fires, so each transaction registers exactly one *)
  mutable hook : bool -> unit;
  (* plain ints on the hot path; [publish] pushes the deltas into the
     domain-local metrics registry *)
  mutable hits : int;
  mutable misses : int;
  mutable rebuild_ns : int;
  mutable pub_hits : int;
  mutable pub_misses : int;
  mutable pub_rebuild_ns : int;
}

let no_node = { meta = 0; high = 0; right = 0; keys = [||]; pays = [||] }

let root t = t.root
let count t = t.count
let size t = Nodes.length t.nodes
let pending t = t.undo_len / 3

let fresh_node order =
  {
    meta = 0;
    high = 0;
    right = 0;
    keys = Array.make order 0;
    pays = Array.make order 0;
  }

(* A descent reads several fields of one node in a row, so the last node
   found answers again without hashing.  Whenever a node enters or
   leaves the table, the memo is emptied or pointed at the new node. *)
let node t a =
  if a = t.last_addr then t.last_node
  else begin
    let n = Nodes.find t.nodes a in
    t.last_addr <- a;
    t.last_node <- n;
    n
  end

let forget t = t.last_addr <- -1
let hit t = t.hits <- t.hits + 1
let miss t = t.misses <- t.misses + 1
let add_rebuild_ns t ns = t.rebuild_ns <- t.rebuild_ns + ns

let load t a =
  let n = fresh_node t.order in
  Nodes.replace t.nodes a n;
  forget t;
  n

(* ---- the undo log ---- *)

let push t a code old =
  let i = t.undo_len in
  if i + 3 > Array.length t.undo then begin
    let bigger = Array.make (2 * Array.length t.undo) 0 in
    Array.blit t.undo 0 bigger 0 i;
    t.undo <- bigger
  end;
  t.undo.(i) <- a;
  t.undo.(i + 1) <- code;
  t.undo.(i + 2) <- old;
  t.undo_len <- i + 3

let restore t n code v =
  if code = f_meta then n.meta <- v
  else if code = f_high then n.high <- v
  else if code = f_right then n.right <- v
  else if code < f_keys + t.order then n.keys.(code - f_keys) <- v
  else n.pays.(code - f_keys - t.order) <- v

let commit t =
  t.undo_len <- 0;
  t.freed <- [];
  t.armed <- false

(* Newest first, so every entry meets the table as it stood when the
   entry was logged: a field's node is back under its address, a freed
   node's address is free again. *)
let abort t =
  let u = t.undo in
  let i = ref (t.undo_len - 3) in
  while !i >= 0 do
    let a = u.(!i) and code = u.(!i + 1) and old = u.(!i + 2) in
    if code >= 0 then restore t (Nodes.find t.nodes a) code old
    else if code = u_root then t.root <- old
    else if code = u_count then t.count <- old
    else if code = u_fresh then Nodes.remove t.nodes a
    else begin
      match t.freed with
      | n :: rest ->
          Nodes.add t.nodes a n;
          t.freed <- rest
      | [] -> assert false
    end;
    i := !i - 3
  done;
  forget t;
  commit t

let create ~order ~root ~count =
  let t =
    {
      order;
      nodes = Nodes.create 256;
      root;
      count;
      undo = Array.make 96 0;
      undo_len = 0;
      freed = [];
      last_addr = -1;
      last_node = no_node;
      armed = false;
      hook = ignore;
      hits = 0;
      misses = 0;
      rebuild_ns = 0;
      pub_hits = 0;
      pub_misses = 0;
      pub_rebuild_ns = 0;
    }
  in
  t.hook <- (fun ok -> if ok then commit t else abort t);
  t

(* Register the outcome hook once per transaction.  Callers log and
   apply their update {e before} arming: a non-transactional ctx fires
   the hook immediately, and its commit must find the update done. *)
let arm t (ctx : Ctx.ctx) =
  if not t.armed then begin
    t.armed <- true;
    ctx.Ctx.on_end t.hook
  end

(* The node a mutation writes: the mirrored one, or a zeroed node for
   an address the transaction has just allocated. *)
let written t a =
  match node t a with
  | n -> n
  | exception Not_found ->
      let n = fresh_node t.order in
      Nodes.add t.nodes a n;
      push t a u_fresh 0;
      t.last_addr <- a;
      t.last_node <- n;
      n

let set_meta t ctx a v =
  let n = written t a in
  push t a f_meta n.meta;
  n.meta <- v;
  arm t ctx

let set_high t ctx a v =
  let n = written t a in
  push t a f_high n.high;
  n.high <- v;
  arm t ctx

let set_right t ctx a v =
  let n = written t a in
  push t a f_right n.right;
  n.right <- v;
  arm t ctx

let set_key t ctx a i v =
  let n = written t a in
  push t a (f_keys + i) n.keys.(i);
  n.keys.(i) <- v;
  arm t ctx

let set_pay t ctx a i v =
  let n = written t a in
  push t a (f_keys + t.order + i) n.pays.(i);
  n.pays.(i) <- v;
  arm t ctx

let free t ctx a =
  match Nodes.find t.nodes a with
  | n ->
      Nodes.remove t.nodes a;
      forget t;
      t.freed <- n :: t.freed;
      push t a u_freed 0;
      arm t ctx
  | exception Not_found -> ()

let set_root t ctx r =
  push t 0 u_root t.root;
  t.root <- r;
  arm t ctx

let set_count t ctx c =
  push t 0 u_count t.count;
  t.count <- c;
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
