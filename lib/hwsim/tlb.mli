(** Private TLB model with the hardware-SpecPMT hotness extensions.

    Each entry carries the paper's two additions (Figure 9): a one-bit
    [EpochBit] and a 3-bit field that is a saturating store counter while
    the page is cold and the epoch ID once it has been speculatively
    logged.  Evicting an entry discards that state — "such a page is
    likely no longer hot" (Section 5.1) — which is precisely what bounds
    the speculative-log growth.

    The model collapses the two levels into one capacity (L2 size) but
    charges the L1/L2 lookup difference probabilistically by residency
    position; a miss charges a page-walk. *)

type entry = {
  vpage : int;  (** page index *)
  mutable epoch_bit : bool;  (** set = page is speculatively logged (hot) *)
  mutable cnt_eid : int;  (** store counter (cold) or epoch ID (hot) *)
}

type t

val create : Hwconfig.t -> Specpmt_pmem.Pmem.t -> t
(** The device is used only for cost accounting. *)

val access : t -> page:int -> entry
(** Look a page up, inserting a fresh cold entry (counter 0) on a miss and
    evicting the oldest entry past capacity.  Charges lookup cost. *)

val find : t -> page:int -> entry option
(** Lookup without insertion or cost (verification). *)

val clear_epoch : t -> eid:int -> int
(** The [clearepoch EID] instruction: reset every entry whose [EpochBit]
    is set with this epoch ID back to cold (counter 0).  Returns how many
    entries were cleared.  Constant hardware cost. *)

val flush : t -> unit
(** Drop all entries (context switch / shootdown). *)

val evictions : t -> int
