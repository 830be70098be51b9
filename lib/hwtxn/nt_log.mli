(** Fence-free hardware undo log (EDE and hardware SpecPMT's cold path).

    Entries persist through the write-pending queue with {e no} fence: the
    queue is inside the ADR persistence domain and the hardware's
    dependence tracking orders each entry before its data store.  Validity
    is generation-based: the region starts with a generation word and an
    entry is [addr, old, crc(gen, addr, old)] — truncation at commit is a
    single non-temporal store of the bumped generation, which instantly
    invalidates every surviving entry of the finished transaction. *)

open Specpmt_pmem
open Specpmt_pmalloc

type t

val create : Heap.t -> region_slot:int -> capacity:int -> t
(** A fresh log of [capacity] entries, published in the region slot. *)

val attach : Heap.t -> region_slot:int -> t
(** Reattach after a crash: the log the region slot names, with the
    capacity of its allocation and its persistent generation. *)

val append : t -> addr:Addr.t -> old:int -> unit
(** Persist one undo entry; no fence.  Grows the region when full. *)

val truncate : t -> unit
(** Commit-side truncation: one fence-free store of a new generation. *)

val scan : t -> (Addr.t * int) list
(** Valid entries of the current generation, oldest first. *)

val footprint : t -> int

val view : t -> Specpmt_txn.Undo.log
(** The log as an {!Specpmt_txn.Undo.log}: [append], [truncate] and
    [footprint] as above; [undo] visits the entries {!scan} returns,
    newest first. *)

val gen_cell : t -> Addr.t
(** Address of the persistent generation word — hardware SpecPMT logs the
    generation bump inside its commit record, making the record the
    transaction's commit marker for the undo log too. *)

val generation : t -> int
