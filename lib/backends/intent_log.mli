(** Fixed-region undo log of the software undo baselines (PMDK,
    Kamino-Tx).

    Layout: [capacity; count; entries...]; the persistent count cell is
    the validity marker.  An entry is a cell's address and, with
    [old_values], its old value.  Each append persists the entry and the
    new count with a full barrier before the caller may update data —
    the per-update fence whose removal is SpecPMT's whole point.  The
    region doubles when full.  Without [old_values], the log's [undo]
    raises [Invalid_argument]: an address-only log cannot roll back. *)

open Specpmt_pmalloc
open Specpmt_txn

val create : Heap.t -> region_slot:int -> old_values:bool -> Undo.log
(** A fresh empty log of 1,024 entries, published in the region slot. *)

val attach : Heap.t -> region_slot:int -> old_values:bool -> Undo.log
(** Reattach after a crash: the log the region slot names, with the
    capacity in its header and its persistent count. *)
