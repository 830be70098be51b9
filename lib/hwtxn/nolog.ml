(** The no-log ideal (Section 7.1.3): transactions persist their write set
    at commit with one drain and perform no logging whatsoever.  This is
    the performance ceiling for in-place-update persistent transactions —
    and it is {e not} crash consistent. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

let create heap =
  let pm = Heap.pmem heap and ws = Log_arena.Lww.create () in
  let shell = Ctx.Shell.create "Nolog" in
  let write a v =
    Log_arena.Lww.add ws a ~value:0 ~ts:0;
    Pmem.store_int pm a v
  in
  let ctx = { (Ctx.Shell.ctx shell ~heap ~write) with free = Heap.free heap } in
  let commit _ =
    Log_arena.Lww.iter ws (fun a ~value:_ ~ts:_ -> Pmem.clwb pm a);
    Pmem.sfence pm;
    Log_arena.Lww.clear ws
  and rollback () = Log_arena.Lww.clear ws in
  {
    Ctx.name = "no-log";
    run_tx =
      (fun f -> Ctx.Shell.run shell ctx ~start:ignore ~commit ~rollback f);
    recover = (fun () -> invalid_arg "no-log provides no crash consistency");
    drain = (fun () -> ());
    log_footprint = (fun () -> 0);
    supports_recovery = false;
  }
