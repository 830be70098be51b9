(** The multi-threaded epoch-reclamation decision rule of Section 5.2.2.

    An epoch [e] may be reclaimed iff it is inactive (its ID was
    reassigned to a younger epoch of the same thread) and every active
    epoch — of any thread — started after [e] ended; otherwise reclaiming
    it could discard the record needed to revoke a concurrent uncommitted
    write (Figure 11). *)

type epoch_span = {
  thread : int;
  eid : int;
  start_ts : int;
  end_ts : int option;  (** [None] while the epoch is still open *)
  inactive : bool;
}

val can_reclaim : all:epoch_span list -> epoch_span -> bool
