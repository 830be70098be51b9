(** DRAM cell mirror for {!Pbtree} — see shadow.mli. *)

open Specpmt_txn

(* Node addresses are word-aligned and a whole node apart, so their low
   bits barely vary: Fibonacci hashing takes the product's bits 32 and
   up, which mix every address bit (as [Log_arena.Lww] does). *)
module Nodes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = ((a lsr 3) * 0x1E3779B97F4A7C15) lsr 32
end)

(* Undo-log entry codes: a non-negative code is the word offset of the
   cell whose old value the entry holds; the negative ones name changes
   to the node table itself. *)
let u_fresh = -1 (* a node entered the table: an abort removes it *)
let u_freed = -2 (* a node left the table: an abort puts it back *)

type t = {
  cells : int; (* words per node *)
  nodes : int array Nodes.t;
      (* the live image: committed state plus the open transaction's
         in-place updates *)
  mutable undo : int array;
      (* (address, code, old value) triples, oldest first; emptied by
         commit, replayed newest first by abort.  Reused across
         transactions. *)
  mutable undo_len : int; (* words of [undo] in use *)
  mutable freed : int array list;
      (* nodes the open transaction removed, newest first: what its
         [u_freed] entries put back *)
  mutable last_addr : int; (* one-entry lookup memo; -1 when empty *)
  mutable last_node : int array;
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

let size t = Nodes.length t.nodes
let pending t = t.undo_len / 3

(* A descent reads several cells of one node in a row, so the last node
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
  let n = Array.make t.cells 0 in
  Nodes.replace t.nodes a n;
  t.last_addr <- a;
  t.last_node <- n;
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

let commit t =
  t.undo_len <- 0;
  t.freed <- [];
  t.armed <- false

(* Newest first, so every entry meets the table as it stood when the
   entry was logged: a cell's node is back under its address, a freed
   node's address is free again. *)
let abort t =
  let u = t.undo in
  let i = ref (t.undo_len - 3) in
  while !i >= 0 do
    let a = u.(!i) and code = u.(!i + 1) and old = u.(!i + 2) in
    if code >= 0 then (Nodes.find t.nodes a).(code) <- old
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

let create ~cells =
  let t =
    {
      cells;
      nodes = Nodes.create 256;
      undo = Array.make 96 0;
      undo_len = 0;
      freed = [];
      last_addr = -1;
      last_node = [||];
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
      let n = load t a in
      push t a u_fresh 0;
      n

let set t ctx a off v =
  let n = written t a in
  push t a off n.(off);
  n.(off) <- v;
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
