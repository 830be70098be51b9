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
  ws : Log_arena.Lww.t; (* cell -> undo image, first-write order *)
  shell : Ctx.Shell.t;
}

let tx_write t a v =
  let old_value = Pmem.load_int t.pm a in
  let n = Log_arena.Lww.length t.ws in
  if Log_arena.Lww.bind t.ws a ~value:old_value ~ts:0 = n then
    Nt_log.append t.log ~addr:a ~old:old_value;
  Pmem.store_int t.pm a v

let commit t frees =
  Log_arena.Lww.iter t.ws (fun a ~value:_ ~ts:_ -> Pmem.clwb t.pm a);
  Pmem.sfence t.pm;
  Nt_log.truncate t.log;
  List.iter (fun a -> Heap.free t.heap a) frees;
  Log_arena.Lww.clear t.ws

let rollback t =
  Log_arena.Lww.iter_newest_first t.ws (fun a ~value ~ts:_ ->
      Pmem.store_int t.pm a value;
      Pmem.clwb t.pm a);
  Pmem.sfence t.pm;
  Nt_log.truncate t.log;
  Log_arena.Lww.clear t.ws

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
  Log_arena.Lww.clear t.ws;
  Ctx.Shell.reset t.shell

let create heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      log =
        Nt_log.create heap ~region_slot:Hw_slots.ede_region
          ~capacity_slot:Hw_slots.ede_capacity ~capacity:1024;
      ws = Log_arena.Lww.create ();
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
