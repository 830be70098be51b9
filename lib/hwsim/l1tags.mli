(** L1 cache-line tag bits of hardware SpecPMT (paper Figure 9).

    Each L1 line gains two flags: [PBit] — the line needs persistence on
    eviction or commit (set when a line of a {e hot} page is updated, which
    is how speculatively-logged data eventually drains to the media) — and
    [LogBit] — the line has been, or must be at commit, logged (undo for
    cold pages, speculative for hot ones).  The model tracks a fixed number
    of line tags with FIFO replacement; evicting a transaction-dirty line
    calls back into the scheme, which must speculatively log it {e before}
    the eviction ("allows an L1 cache line updated in the transaction to
    overflow to L2 as long as the hardware speculatively logs the cache
    line prior to the eviction", Section 5.2).

    On commit the hardware scans the tags for transaction-dirty lines,
    clears every [LogBit] and keeps the [PBit]s (Section 5.1). *)

open Specpmt_pmem

type entry = {
  line : Addr.t;  (** line base address *)
  mutable pbit : bool;
  mutable logbit : bool;
  mutable tx_dirty : bool;  (** updated by the open transaction *)
}

type t

val create : lines:int -> on_tx_evict:(entry -> unit) -> t
(** [lines] is the L1 capacity in line tags; [on_tx_evict] fires when a
    transaction-dirty line tag is evicted mid-transaction. *)

val touch : t -> line:Addr.t -> entry
(** Look a line tag up, inserting (all-clear) on a miss with FIFO
    eviction. *)

val scan_tx_dirty : t -> (entry -> unit) -> unit
(** The commit-time L1 scan: visit every transaction-dirty resident line. *)

val end_tx : t -> unit
(** Commit/abort epilogue: clear every [LogBit] and [tx_dirty], keep the
    [PBit]s. *)

val tx_evictions : t -> int
