(** No-transaction baseline: plain in-place updates with no logging, no
    flushes and no fences.  Not crash consistent — this is the "versions
    without persistent memory transactions" that Figure 1 measures
    overhead against. *)

open Specpmt_txn

let create heap =
  let ctx = Ctx.raw_ctx heap in
  {
    Ctx.name = "raw";
    run_tx = (fun f -> f ctx);
    recover = (fun () -> invalid_arg "raw baseline is not crash consistent");
    drain = (fun () -> ());
    log_footprint = (fun () -> 0);
    supports_recovery = false;
  }
