(* Reference model of the KV service: what every completion must return
   and what every cell must hold after recovery.

   Keys never move between shards and each shard serves its requests in
   FIFO order, so replaying the stream in issue order gives the exact
   value each op observes.  Scans walk a per-shard map of populated keys
   (keys some client write has touched) with the checksum formula of
   [Service.Scan]. *)

open Specpmt
module IMap = Map.Make (Int)

type t = {
  expect : int array;  (** completion value per stream index *)
  final : int array;  (** cell value per key once the stream has run *)
}

let scan_sum cell m ~anchor ~len =
  let rec go acc left seq =
    if left = 0 then acc
    else
      match seq () with
      | Seq.Nil -> acc
      | Seq.Cons ((k, ()), rest) ->
          go (((acc * 31) + k + cell.(k)) land max_int) (left - 1) rest
  in
  go 0 len (IMap.to_seq_from anchor m)

let build ~shards ~keys (stream : (int * Svc.Service.op) array) =
  let cell = Array.make keys 0 in
  let populated = Array.make shards IMap.empty in
  let touch k =
    let s = Svc.Service.route ~shards k in
    populated.(s) <- IMap.add k () populated.(s)
  in
  let expect =
    Array.map
      (fun (k, op) ->
        match op with
        | Svc.Service.Read -> cell.(k)
        | Svc.Service.Write v ->
            touch k;
            cell.(k) <- v;
            v
        | Svc.Service.Rmw d ->
            touch k;
            cell.(k) <- cell.(k) + d;
            cell.(k)
        | Svc.Service.Scan len ->
            let s = Svc.Service.route ~shards k in
            scan_sum cell populated.(s) ~anchor:k ~len)
      stream
  in
  { expect; final = cell }

(* Keys whose cell differs from the model — the post-recovery audit. *)
let audit t peek =
  let bad = ref 0 in
  Array.iteri (fun k v -> if peek k <> v then incr bad) t.final;
  !bad
