(** PMDK-style undo-logging transactions — the paper's baseline
    (Section 7.1.2).

    Before the first in-place update of each cell, the old value is
    appended to the undo log and persisted with a flush + fence (Figure 2,
    left: "log old a & flush log", "a fence after each log").  Commit
    flushes every updated data line, fences, then truncates the log with a
    second barrier — committed data must be durable before the undo images
    are discarded.  Recovery rolls uncommitted updates back, newest
    first. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  log : Intent_log.t;
  ws : Log_arena.Lww.t; (* cell -> undo image, first-write order *)
  shell : Ctx.Shell.t;
}

let tx_write t a v =
  let old_value = Pmem.load_int t.pm a in
  let n = Log_arena.Lww.length t.ws in
  if Log_arena.Lww.bind t.ws a ~value:old_value ~ts:0 = n then
    Intent_log.append_durable t.log [ a; old_value ];
  Pmem.store_int t.pm a v

let commit t frees =
  Log_arena.Lww.iter t.ws (fun a ~value:_ ~ts:_ -> Pmem.clwb t.pm a);
  Pmem.sfence t.pm;
  Intent_log.truncate_durable t.log;
  List.iter (fun a -> Heap.free t.heap a) frees;
  Log_arena.Lww.clear t.ws

let rollback t =
  Log_arena.Lww.iter_newest_first t.ws (fun a ~value ~ts:_ ->
      Pmem.store_int t.pm a value;
      Pmem.clwb t.pm a);
  Pmem.sfence t.pm;
  Intent_log.truncate_durable t.log;
  Log_arena.Lww.clear t.ws

let recover t =
  Heap.recover t.heap;
  let log =
    Intent_log.attach t.heap ~region_slot:Slots.pmdk_region
      ~capacity_slot:Slots.pmdk_capacity ~words_per_entry:2
  in
  let n = Intent_log.count log in
  for i = n - 1 downto 0 do
    match Intent_log.entry log i with
    | [ a; old_value ] ->
        Pmem.store_int t.pm a old_value;
        Pmem.clwb t.pm a
    | _ -> assert false
  done;
  Pmem.sfence t.pm;
  Intent_log.truncate_durable log;
  Log_arena.Lww.clear t.ws;
  Ctx.Shell.reset t.shell

let create heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      log =
        Intent_log.create heap ~region_slot:Slots.pmdk_region
          ~capacity_slot:Slots.pmdk_capacity ~words_per_entry:2
          ~capacity:1024;
      ws = Log_arena.Lww.create ();
      shell = Ctx.Shell.create "Pmdk_undo";
    }
  in
  let ctx = Ctx.Shell.ctx t.shell ~heap ~write:(tx_write t) in
  let commit = commit t and rollback () = rollback t in
  {
    Ctx.name = "PMDK";
    run_tx =
      (fun f -> Ctx.Shell.run t.shell ctx ~start:ignore ~commit ~rollback f);
    recover = (fun () -> recover t);
    drain = (fun () -> ());
    log_footprint = (fun () -> Intent_log.footprint t.log);
    supports_recovery = true;
  }
