open Specpmt_pmem

type entry = {
  line : Addr.t;
  mutable pbit : bool;
  mutable logbit : bool;
  mutable tx_dirty : bool;
}

type t = {
  lines : int;
  table : (Addr.t, entry) Hashtbl.t;
  order : Addr.t Queue.t;
  on_tx_evict : entry -> unit;
  mutable tx_evicted : int;
}

let create ~lines ~on_tx_evict =
  {
    lines;
    table = Hashtbl.create 256;
    order = Queue.create ();
    on_tx_evict;
    tx_evicted = 0;
  }

let tx_evictions t = t.tx_evicted

let evict_to_capacity t =
  while Hashtbl.length t.table > t.lines && not (Queue.is_empty t.order) do
    let line = Queue.pop t.order in
    match Hashtbl.find_opt t.table line with
    | None -> ()
    | Some e ->
        Hashtbl.remove t.table line;
        if e.tx_dirty then begin
          t.tx_evicted <- t.tx_evicted + 1;
          t.on_tx_evict e
        end
  done

let touch t ~line =
  match Hashtbl.find_opt t.table line with
  | Some e -> e
  | None ->
      let e = { line; pbit = false; logbit = false; tx_dirty = false } in
      Hashtbl.replace t.table line e;
      Queue.push line t.order;
      evict_to_capacity t;
      e

let scan_tx_dirty t f =
  Hashtbl.iter (fun _ e -> if e.tx_dirty then f e) t.table

let end_tx t =
  Hashtbl.iter
    (fun _ e ->
      e.logbit <- false;
      e.tx_dirty <- false)
    t.table
