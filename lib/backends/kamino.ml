(** Kamino-Tx upper-bound model (Section 7.1.2).

    Kamino-Tx keeps a full backup copy of the data and updates in place;
    before each main-copy update it must persist the {e address} of the
    write intent (so recovery knows which cells to re-copy from the
    backup), paying a flush + fence per update — "Kamino-Tx does not avoid
    the fences for ensuring address persistence" (Section 8).  Data
    persistence is asynchronous via the backup.

    Following the paper's methodology, the main-to-backup copying is
    omitted, which makes this an upper bound on Kamino-Tx performance —
    and means this port cannot actually recover ([supports_recovery =
    false]); it participates in the performance figures only. *)

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
    Intent_log.append_durable t.log [ a ];
  Pmem.store_int t.pm a v

(* Commit: clear the intent list with one barrier.  No data flushes — the
   backup copy (omitted) would absorb them off the critical path. *)
let commit t frees =
  Intent_log.truncate_durable t.log;
  List.iter (fun a -> Heap.free t.heap a) frees;
  Log_arena.Lww.clear t.ws

let rollback t =
  Log_arena.Lww.iter_newest_first t.ws (fun a ~value ~ts:_ ->
      Pmem.store_int t.pm a value);
  Intent_log.truncate_durable t.log;
  Log_arena.Lww.clear t.ws

let create heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      log =
        Intent_log.create heap ~region_slot:Slots.kamino_region
          ~capacity_slot:Slots.kamino_capacity ~words_per_entry:1
          ~capacity:1024;
      ws = Log_arena.Lww.create ();
      shell = Ctx.Shell.create "Kamino";
    }
  in
  let ctx = Ctx.Shell.ctx t.shell ~heap ~write:(tx_write t) in
  let commit = commit t and rollback () = rollback t in
  {
    Ctx.name = "Kamino-Tx";
    run_tx =
      (fun f -> Ctx.Shell.run t.shell ctx ~start:ignore ~commit ~rollback f);
    recover =
      (fun () ->
        invalid_arg
          "Kamino-Tx upper-bound model omits the backup copy and cannot \
           recover (paper Section 7.1.2)");
    drain = (fun () -> ());
    log_footprint = (fun () -> Intent_log.footprint t.log);
    supports_recovery = false;
  }
