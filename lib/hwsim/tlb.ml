open Specpmt_pmem

type entry = {
  vpage : int;
  mutable epoch_bit : bool;
  mutable cnt_eid : int;
}

type t = {
  cfg : Hwconfig.t;
  pm : Pmem.t;
  table : (int, entry) Hashtbl.t;
  order : int Queue.t; (* FIFO eviction *)
  mutable evicted : int;
}

let create cfg pm = { cfg; pm; table = Hashtbl.create 64; order = Queue.create (); evicted = 0 }

let evictions t = t.evicted

(* Hotness state is only tracked while a page is L1-TLB resident: the
   paper's counters live in TLB entries and are discarded on eviction
   (Section 5.1), which is what keeps speculative logging focused on
   genuinely hot, locality-friendly pages. *)
let evict_to_capacity t =
  while Hashtbl.length t.table > t.cfg.Hwconfig.l1_tlb_entries
        && not (Queue.is_empty t.order) do
    let p = Queue.pop t.order in
    if Hashtbl.mem t.table p then begin
      Hashtbl.remove t.table p;
      t.evicted <- t.evicted + 1
    end
  done

let access t ~page =
  match Hashtbl.find_opt t.table page with
  | Some e -> e
  | None ->
      Pmem.charge_ns t.pm t.cfg.Hwconfig.tlb_miss_ns;
      let e = { vpage = page; epoch_bit = false; cnt_eid = 0 } in
      Hashtbl.replace t.table page e;
      Queue.push page t.order;
      evict_to_capacity t;
      e

let find t ~page = Hashtbl.find_opt t.table page

let clear_epoch t ~eid =
  let n = ref 0 in
  Hashtbl.iter
    (fun _ e ->
      if e.epoch_bit && e.cnt_eid = eid then begin
        e.epoch_bit <- false;
        e.cnt_eid <- 0;
        incr n
      end)
    t.table;
  !n

let flush t =
  Hashtbl.reset t.table;
  Queue.clear t.order
