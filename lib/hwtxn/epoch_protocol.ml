(** The multi-threaded epoch-reclamation protocol of Section 5.2.2.

    Reclaiming a thread's epoch is only safe when no other thread's still
    active epoch overlaps it: otherwise a crash could need the reclaimed
    records to revoke a concurrent uncommitted write (Figure 11).  The
    paper's rule: the software may reclaim all log records of an epoch [e]
    iff (1) [e] is {e inactive} — its ID has been reassigned to a younger
    epoch of the same thread — and (2) every {e active} epoch (of any
    thread) started after [e] ended.

    This module is the pure decision logic, shared by tests and by the
    multi-threaded simulation; each thread keeps the timestamp at which its
    earliest unreclaimed epoch started, exactly as the hardware proposal
    does. *)

type epoch_span = {
  thread : int;
  eid : int;
  start_ts : int;
  end_ts : int option;  (** [None] while the epoch is still open *)
  inactive : bool;
      (** the thread has reassigned this epoch ID to a younger epoch *)
}

(** [can_reclaim ~all e] decides whether epoch [e] may be reclaimed given
    the spans of every thread's epochs. *)
let can_reclaim ~all e =
  match e.end_ts with
  | None -> false (* an open epoch is never reclaimable *)
  | Some e_end ->
      e.inactive
      && List.for_all
           (fun o ->
             o == e
             || o.inactive (* inactive epochs don't constrain reclamation *)
             || o.start_ts > e_end)
           all
