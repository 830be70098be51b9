(** Fixed-size persistent array of 8-byte cells.

    All operations go through a {!Specpmt_txn.Ctx.ctx}, so the same code
    works transactionally (inside [run_tx]) and raw (setup phases). *)

open Specpmt_pmem
open Specpmt_txn

type t = { base : Addr.t; len : int }

let create (ctx : Ctx.ctx) len =
  assert (len > 0);
  { base = ctx.Ctx.alloc (len * 8); len }

let length t = t.len
let base t = t.base

let addr t i =
  if i < 0 || i >= t.len then Fmt.invalid_arg "Parray: index %d/%d" i t.len;
  t.base + (i * 8)

let get (ctx : Ctx.ctx) t i = ctx.Ctx.read (addr t i)
let set (ctx : Ctx.ctx) t i v = ctx.Ctx.write (addr t i) v

let fill ctx t v =
  for i = 0 to t.len - 1 do
    set ctx t i v
  done

let to_list ctx t = List.init t.len (fun i -> get ctx t i)
