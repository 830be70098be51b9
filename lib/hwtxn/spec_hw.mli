(** Hardware SpecPMT (SpecHPMT) — hybrid undo/speculative logging with
    epoch-based foreground log reclamation (paper Section 5).

    Stores to {e cold} pages are undo-logged fence-free through the
    write-pending queue and their lines are persisted at commit (classic
    hardware undo logging, as EDE).  A TLB-resident saturating counter
    detects {e hot} pages: on saturation the bulk-copy engine snapshots the
    whole page into the speculative log (a fence-free committed record),
    and from then on the page's updates are speculatively logged at commit
    and {b never} flushed on the critical path.

    Commit issues exactly one fence: cold lines are flushed (persistent on
    WPQ acceptance), the commit record — the transaction's hot values plus
    a bump of the undo-log generation, which doubles as the commit marker —
    is flushed, one [sfence] drains everything, and the undo log is
    truncated with a single fence-free store.

    Epochs (Section 5.2): the log chain is divided at sealed block
    boundaries; when the current epoch exceeds its byte or page budget a
    new one starts ([startepoch]), and when the whole log exceeds its
    budget the oldest epoch is reclaimed in the foreground: persist the
    epoch's speculatively-logged pages, [clearepoch] the TLB, and free the
    chain prefix with one atomic head switch.

    Invariants kept (Section 5.1.1): every uncommitted update has an undo
    or speculative record; a page has live speculative records if and only
    if it is tracked as hot, so committed cold data can never be shadowed
    by a stale speculative record at replay. *)

open Specpmt_pmalloc
open Specpmt_txn
open Specpmt_hwsim

(** Hot-page detection (Section 6 "Alternative Designs"): the TLB
    saturating counters of the proposed hardware, or software-offloaded
    sampling with periodic decay (no TLB modifications, coarser timing). *)
type hotness = Tlb_counters | Software_sampled of { decay_period : int }

type params = {
  hw : Hwconfig.t;
  data_persist : bool;  (** SpecHPMT-DP: flush hot data at commit too *)
  hotness : hotness;
}

val default_params : params
val dp_params : params

type t

val create : Heap.t -> params -> Ctx.backend * t
(** A standalone runtime: core 0 of a one-core {!Mt} pool.  The cores
    of a pool share a timestamp counter, an epoch coordinator (the
    Section 5.2.2 reclamation protocol) and the page-hotness table. *)

(** {1 Introspection (tests, figures)} *)

val transitions : t -> int
(** Cold-to-hot page transitions (bulk page copies) so far. *)

val hot_writes : t -> int

val cold_writes : t -> int

val reclaims : t -> int
(** Epoch reclamation cycles run. *)

val epochs_started : t -> int

val peak_log_bytes : t -> int
(** High-water mark of the speculative log footprint (Fig. 15's
    memory-consumption axis). *)

val is_hot_page : t -> page:int -> bool
(** Whether the page currently has live speculative coverage. *)

val l1_tx_evictions : t -> int
(** Transaction-dirty L1 lines that overflowed mid-transaction and were
    speculatively logged before eviction (Section 5.2). *)

(** Multi-core hardware SpecPMT (Section 5.2.2): per-core logs, undo
    regions, TLBs and epochs over one pool, sharing the page-hotness
    metadata, the timestamp counter and the epoch-reclamation
    coordinator.  Recovery scans {e every} core's log and replays all
    records in global timestamp order, then applies each core's undo
    log.  It is the one SpecHPMT: a standalone runtime is a pool of
    one. *)
module Mt : sig
  type pool

  val create : ?params:params -> Heap.t -> threads:int -> pool
  (** Up to 4 cores; core i's log head and undo region pointer are on
      root line 4 + i ({!Hw_slots.spec_head}). *)

  val thread : pool -> int -> Ctx.backend
  (** One core's transactional interface.  Its [recover] is the pool's
      {!recover}: the cores share the hotness table and the epoch
      coordinator, so no core recovers alone. *)

  val runtime : pool -> int -> t
  val threads : pool -> int
  val coordinator : pool -> Epoch_coord.t

  val recover : pool -> unit
  (** Crash recovery across all cores' logs, merged by timestamp, then
      each core's undo revoke, then the heap walk. *)
end
