open Specpmt_backends
open Specpmt_txn

type op = Read | Write of int | Rmw of int | Scan of int

(* Multiplicative hash (Knuth's 2^32 ratio): the product is masked to
   the intended 32-bit hash before the shift.  The parentheses are
   load-bearing — [lsr] binds tighter than [*] in OCaml, so the
   unparenthesized [k * 2654435761 lsr 13 mod shards] multiplies by
   [2654435761 lsr 13 = 324027 = 27 * 11 * 1091] instead, and any shard
   count dividing 324027 (3, 9, 11, 27, 33...) routes every key to
   shard 0. *)
let route ~shards k = ((k * 2654435761) land 0xFFFF_FFFF) lsr 13 mod shards

let rows ~shards ~keys =
  if shards < 1 || shards > Spec_mt.max_threads then
    Fmt.invalid_arg "Shards.rows: 1-%d shards" Spec_mt.max_threads;
  if keys < 1 then invalid_arg "Shards.rows: keys < 1";
  let rev = Array.make shards [] in
  for k = keys - 1 downto 0 do
    let s = route ~shards k in
    rev.(s) <- k :: rev.(s)
  done;
  Array.map Array.of_list rev

exception Too_large

let building f = try f () with Out_of_memory -> raise Too_large

(* A shard's op and result, and [job], its one reusable closure over
   them: a shard runs on one domain at a time, so it needs no other. *)
type cursor = {
  mutable key : int;
  mutable op : op;
  mutable value : int;
  mutable job : Ctx.ctx -> unit;
}

type t = {
  pool : Spec_mt.t;
  heap : Specpmt_pmalloc.Heap.t;
  shadow : bool;
  rows : int array array;
  cells : Specpmt_pmem.Addr.t array;
  gcs : Group_commit.t array;
  cursors : cursor array;
  mutable oidx : Oindex.t;
}

(* The one transaction body.  It reads [t.oidx] at call time: [recover]
   replaces the index. *)
let body t shard c ctx =
  match c.op with
  | Write v ->
      let a = t.cells.(c.key) in
      (* first client write indexes the key, same transaction as the
         cell store: entry and cell are atomic together *)
      Oindex.ensure ctx t.oidx ~shard ~key:c.key ~addr:a;
      ctx.Ctx.write a v;
      c.value <- v
  | Read -> c.value <- ctx.Ctx.read t.cells.(c.key)
  | Rmw d ->
      (* read and dependent write under the same speculative record *)
      let a = t.cells.(c.key) in
      Oindex.ensure ctx t.oidx ~shard ~key:c.key ~addr:a;
      let v = ctx.Ctx.read a + d in
      ctx.Ctx.write a v;
      c.value <- v
  | Scan len ->
      c.value <- Oindex.scan ctx t.oidx ~shard ~anchor:c.key ~len

let create ~shadow heap ~pool ~rows ~cells =
  let shards = Array.length rows in
  (* Adoption (Section 4.3.2): without it, a crash during the first
     ever write to a key would leave a torn value recovery cannot
     revert.  It does not populate the index: an unwritten key is
     absent from scans, YCSB-E's insert-frontier semantics. *)
  Array.iteri
    (fun s row ->
      if Array.length row > 0 then
        (Spec_mt.thread pool s).Ctx.run_tx (fun ctx ->
            Array.iter (fun k -> ctx.Ctx.write cells.(k) 0) row))
    rows;
  let oidx =
    Oindex.create ~shadow heap ~pool ~shards ~keys:(Array.length cells)
  in
  let t =
    {
      pool;
      heap;
      shadow;
      rows;
      cells;
      gcs =
        Array.init shards (fun s ->
            Group_commit.create ~backend:(Spec_mt.thread pool s)
              ~rt:(Spec_mt.runtime pool s));
      cursors =
        Array.init shards (fun _ ->
            { key = 0; op = Read; value = 0; job = ignore });
      oidx;
    }
  in
  Array.iteri (fun s c -> c.job <- (fun ctx -> body t s c ctx)) t.cursors;
  t

let batch_begin t s = Group_commit.batch_begin t.gcs.(s)

let exec t s ~key op =
  let c = t.cursors.(s) in
  c.key <- key;
  c.op <- op;
  Group_commit.exec t.gcs.(s) c.job;
  c.value

let batch_end t s ~n = Group_commit.batch_end t.gcs.(s) ~n

let recover t =
  Spec_mt.recover t.pool;
  Array.iter Group_commit.reset t.gcs;
  t.oidx <-
    Oindex.recover ~shadow:t.shadow ~pool:t.pool t.heap
      ~shards:(Array.length t.rows) ~keys:(Array.length t.cells)

let batcher t s = t.gcs.(s)
let index t = t.oidx
let row t s = t.rows.(s)
let cell t k = t.cells.(k)

type tally = {
  mutable reads : int;
  mutable writes : int;
  mutable rmws : int;
  mutable scans : int;
  mutable reads_sum : int;
}

let tally () = { reads = 0; writes = 0; rmws = 0; scans = 0; reads_sum = 0 }
let sum t v = t.reads_sum <- (t.reads_sum + v) land max_int

let count t op value =
  match op with
  | Read -> t.reads <- t.reads + 1; sum t value
  | Write _ -> t.writes <- t.writes + 1
  | Rmw _ -> t.rmws <- t.rmws + 1; sum t value
  | Scan _ -> t.scans <- t.scans + 1; sum t value
