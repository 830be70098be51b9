(** Per-shard group commit (tentpole component (b)).

    Executes a batch of queued transactions back-to-back under
    {!Specpmt_backends.Spec_soft.batch_begin}/[batch_end]: each commit
    appends a tentative (poisoned-checksum, unfenced) record, and the
    seal persists the whole batch with one flush run and a single fence.
    K batched transactions share SpecPMT's one remaining ordering point,
    so fences per transaction tend to 1/K.

    At a crash the batch is all-or-prefix: before the seal nothing is
    visible to recovery; inside the seal the records become durable in
    append order and the valid-prefix scan stops at the first
    still-poisoned checksum — recovery itself needs no changes.

    Data-persist runtimes fence per transaction by definition, so the
    batcher degrades to plain sequential commits for them. *)

open Specpmt_backends
open Specpmt_txn

type t

val create : backend:Ctx.backend -> rt:Spec_soft.t -> t
(** Batcher over one shard's backend/runtime pair. *)

(** {1 Allocation-free batch protocol}

    Open the batch, run each transaction through {!exec} (the caller
    keeps one reusable closure and feeds it per-op state through its
    captured cells — {!Shards.exec} does), close with the executed
    count.  No job list, no per-batch closures. *)

val batch_begin : t -> unit
(** Open a batch (no-op for data-persist runtimes). *)

val exec : t -> (Ctx.ctx -> unit) -> unit
(** Run one transaction inside the open batch. *)

val batch_end : t -> n:int -> unit
(** Seal the open batch.  [n] is the number of transactions executed
    since {!batch_begin}.  When [n > 0], counts the batch in
    {!batches} and observes [n] into the [svc.batch_size] histogram;
    the seal itself always closes an opened batch. *)

val sealing : t -> bool
(** True exactly while the seal of a batch is running — a crash observed
    with this set may have durably committed any prefix of that batch;
    otherwise the acknowledged/unacknowledged boundary is exact. *)

val batches : t -> int
(** Batches executed. *)

val sealed_records : t -> int
(** Records made durable by seals (read-only transactions add none). *)

val backend : t -> Ctx.backend

val reset : t -> unit
(** Post-crash: clear the sealing flag (the interrupted seal is over). *)
