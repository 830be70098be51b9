(** HOOP — hardware-assisted out-of-place updates (ISCA'20), as modelled
    in the paper's evaluation: write intents are buffered on chip
    (reads are redirected to them), drained to a sequential log at commit
    with no fence, and applied to the home locations by a background
    garbage collector whose bursts contend with the foreground for the
    write-pending queue.  Logs a record per update {e and} per cache miss
    (the address-mapping metadata that inflates its traffic on
    large-footprint applications). *)

open Specpmt_pmalloc
open Specpmt_txn

val create : Heap.t -> Ctx.backend
(** 8,192 log entries trigger a GC cycle; 0.4 of the GC burst's
    write-queue occupancy stalls the foreground; streaming the on-chip
    buffer costs 5 ns per logged update. *)
