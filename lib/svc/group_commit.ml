open Specpmt_backends
open Specpmt_txn
module Metrics = Specpmt_obs.Metrics

(* Per-shard group commit: execute a batch of queued transactions
   back-to-back as tentative commits (poisoned checksums, no fences),
   then seal the whole batch with one flush run and a single fence
   (Spec_soft.batch_end).  K batched transactions share one ordering
   point, so fences/txn tends to 1/K.

   Data-persist runtimes fence each transaction's data individually by
   definition, so for them the batcher degrades to plain sequential
   commits. *)

type t = {
  backend : Ctx.backend;
  rt : Spec_soft.t;
  batching : bool;
  mutable sealing : bool;
      (* true exactly while [batch_end] runs — a crash observed with
         [sealing] set may have durably committed any prefix of the
         batch; outside it the batch boundary is exact *)
  mutable batches : int;
  mutable sealed : int;
}

let create ~backend ~rt =
  {
    backend;
    rt;
    batching = not (Spec_soft.params rt).Spec_soft.data_persist;
    sealing = false;
    batches = 0;
    sealed = 0;
  }

(* The three-call form: the caller opens the batch, runs each
   transaction through [exec] with whatever reusable closure it owns,
   and closes with the executed count — no job list, no per-batch
   closures. *)
let batch_begin t = if t.batching then Spec_soft.batch_begin t.rt

let exec t f = t.backend.Ctx.run_tx f

let batch_end t ~n =
  if t.batching then begin
    t.sealing <- true;
    let sealed = Spec_soft.batch_end t.rt in
    t.sealing <- false;
    t.sealed <- t.sealed + sealed
  end;
  if n > 0 then begin
    t.batches <- t.batches + 1;
    (* looked up per seal: metric cells are domain-local, and a
       module-level lazy would capture (and race on) the cell of
       whichever domain forced it first *)
    Specpmt_obs.Hist.observe (Metrics.histogram "svc.batch_size") n
  end

let sealing t = t.sealing
let batches t = t.batches
let sealed_records t = t.sealed
let backend t = t.backend

(* post-crash: the interrupted seal (if any) is over *)
let reset t = t.sealing <- false
