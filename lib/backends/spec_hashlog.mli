(** Hash-table speculative log — the memory-saving alternative the paper
    rejects (Section 4): one dual-versioned log slot per datum, located by
    hashing its address.  Minimal memory, but the log write and flush
    pattern becomes random instead of sequential — the ablation behind the
    paper's reported 3.2x slowdown. *)

open Specpmt_pmalloc
open Specpmt_txn

val create : Heap.t -> Ctx.backend
(** The table's buckets take a sixteenth of the pool. *)
