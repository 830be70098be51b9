(** Construction of the simulated-hardware transaction schemes by name. *)

open Specpmt_pmalloc
open Specpmt_txn

type kind =
  | Ede
      (** EDE, the Execution Dependence Extension (Shull et al., ISCA'21),
          the paper's hardware baseline (Section 7.1.3): in-place updates
          with hardware undo logging, one entry per cell on its first
          write in a transaction.  The ISA's dependence tracking removes
          the fences between log and data: an entry persists through the
          write-pending queue, then the data is stored.  Commit flushes
          the write set, drains once and truncates the log. *)
  | Hoop  (** out-of-place updates + background GC *)
  | Spec_hw_dp  (** hardware SpecPMT with forced data persistence *)
  | Spec_hw  (** hardware SpecPMT (hybrid logging + epochs) *)
  | Nolog  (** ideal, not crash consistent *)

val all : kind list
val name : kind -> string
val of_name : string -> kind option
val create : Heap.t -> kind -> Ctx.backend
