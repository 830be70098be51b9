(** EDE — Execution Dependence Extension (Shull et al., ISCA'21), the
    paper's hardware baseline (Section 7.1.3).

    In-place updates with hardware undo logging; the ISA-level dependence
    tracking removes the fences {e between} log and data operations, so an
    update is: persist the undo entry through the write-pending queue (no
    fence), then store the data.  Commit persists the write set
    synchronously (flush every updated line + one drain) and truncates the
    log.  Each word gets one undo record, on its first write in the
    transaction; re-writes of a logged word log nothing. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  mutable log : Nt_log.t;
  ws : Write_set.t;
  shell : Ctx.Shell.t;
}

let tx_write t a v =
  let old_value = Pmem.load_int t.pm a in
  let _, first = Write_set.record t.ws a ~old_value in
  if first then Nt_log.append t.log ~addr:a ~old:old_value;
  Pmem.store_int t.pm a v

let commit t frees =
  Write_set.iter_in_order t.ws (fun a _ -> Pmem.clwb t.pm a);
  Pmem.sfence t.pm;
  Nt_log.truncate t.log;
  List.iter (fun a -> Heap.free t.heap a) frees;
  Write_set.clear t.ws

let rollback t =
  Write_set.iter_newest_first t.ws (fun a slot ->
      Pmem.store_int t.pm a slot.Write_set.old_value;
      Pmem.clwb t.pm a);
  Pmem.sfence t.pm;
  Nt_log.truncate t.log;
  Write_set.clear t.ws

let recover t =
  Heap.recover t.heap;
  let log =
    Nt_log.attach t.heap ~region_slot:Hw_slots.ede_region
      ~capacity_slot:Hw_slots.ede_capacity
  in
  let entries = Nt_log.scan log in
  List.iter
    (fun (a, old) ->
      Pmem.store_int t.pm a old;
      Pmem.clwb t.pm a)
    (List.rev entries);
  Pmem.sfence t.pm;
  Nt_log.truncate log;
  (* adopt the reattached log (fresh cached generation and region) *)
  t.log <- log;
  Write_set.clear t.ws;
  Ctx.Shell.reset t.shell

let create heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      log =
        Nt_log.create heap ~region_slot:Hw_slots.ede_region
          ~capacity_slot:Hw_slots.ede_capacity ~capacity:1024;
      ws = Write_set.create ();
      shell = Ctx.Shell.create "Ede";
    }
  in
  let ctx = Ctx.Shell.ctx t.shell ~heap ~write:(tx_write t) in
  let commit = commit t and rollback () = rollback t in
  {
    Ctx.name = "EDE";
    run_tx =
      (fun f -> Ctx.Shell.run t.shell ctx ~start:ignore ~commit ~rollback f);
    recover = (fun () -> recover t);
    drain = (fun () -> ());
    log_footprint = (fun () -> Nt_log.footprint t.log);
    supports_recovery = true;
  }
