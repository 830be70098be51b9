(** Shared epoch registry for multi-threaded hardware SpecPMT
    (paper Section 5.2.2).

    Each thread registers when its epochs start and end (timestamps from
    the shared logical clock); before reclaiming an epoch, a thread asks
    whether any other thread's epoch that is still active overlaps it —
    the check that makes the Figure 11 data loss impossible: reclaiming
    such an epoch could discard the record needed to revoke a concurrent
    uncommitted write. *)

type epoch_span = {
  thread : int;
  eid : int;
  start_ts : int;
  end_ts : int option;  (** [None] while the epoch is still open *)
  inactive : bool;
      (** the thread has reassigned this epoch ID to a younger epoch *)
}

val can_reclaim : all:epoch_span list -> epoch_span -> bool
(** The paper's rule: [e] may be reclaimed iff it is inactive and every
    active epoch — of any thread, among [all] — started after [e]
    ended. *)

type t

val create : unit -> t

val register_start : t -> thread:int -> eid:int -> start_ts:int -> unit
(** [startepoch]: a fresh, active epoch. *)

val register_end : t -> thread:int -> eid:int -> end_ts:int -> unit
(** The epoch stops accepting records (its thread started a newer one). *)

val may_reclaim : t -> thread:int -> eid:int -> bool
(** Whether the (ended) epoch can be reclaimed now: {!can_reclaim} over
    every registered span.  An unregistered epoch always can. *)

val drop : t -> thread:int -> eid:int -> unit
(** The epoch's records are gone; forget its span. *)

val reset : t -> unit
(** Post-recovery: all pre-crash epochs are dead. *)

val spans : t -> epoch_span list
(** Introspection for tests. *)
