(** Construction of the software transaction schemes by name. *)

open Specpmt_pmalloc
open Specpmt_txn

type kind =
  | Raw  (** no crash consistency (Figure 1 baseline) *)
  | Pmdk
      (** PMDK-style undo logging, the paper's software baseline
          (Section 7.1.2): before the first in-place update of each cell,
          its address and old value are persisted with a flush and a
          fence (Figure 2, left: "a fence after each log"); commit
          flushes every updated line, fences, and truncates the log with
          a second barrier; recovery rolls back newest first. *)
  | Kamino
      (** Kamino-Tx upper bound (Section 7.1.2): in-place updates that
          persist only the {e address} of each first update, with a flush
          and a fence — "Kamino-Tx does not avoid the fences for ensuring
          address persistence" (Section 8) — and leave data persistence
          to a backup copy.  Following the paper, the backup copying is
          omitted, so this is an upper bound on Kamino-Tx's performance
          that cannot recover ([supports_recovery = false]). *)
  | Spht  (** redo logging + background replayer *)
  | Spec_dp  (** software SpecPMT with forced data persistence *)
  | Spec  (** software SpecPMT *)
  | Hashlog  (** hash-table speculative log (Section 4 ablation) *)

val all : kind list
(** In presentation order of Figure 12 (plus the ablations). *)

val name : kind -> string
val of_name : string -> kind option

val spec_params : kind -> Spec_soft.params option
(** The scheme's default SpecPMT runtime parameters, or [None] for
    schemes that take none — the single source of truth for "is this a
    parameterisable SpecPMT variant?" used by the CLI, the bench driver
    and the service layer. *)

val create : ?spec_params:Spec_soft.params -> Heap.t -> kind -> Ctx.backend
(** Instantiate a scheme on a freshly formatted pool.  [spec_params]
    overrides the defaults of the SpecPMT schemes (reclamation policy,
    recovery mode, block size...); passing it for any other scheme raises
    [Invalid_argument]. *)
