(** Bounded ring-buffer event trace for post-crash debugging.

    The fuzz harness crashes a backend thousands of times; when an audit
    fails, the question is always "what were the last few log and
    recovery operations before the crash?".  Subsystems {!emit} cheap
    structured events (a static label plus up to two integer arguments);
    the ring keeps the most recent [capacity] of them.  Disabled by
    default — {!emit} is a single branch when off, so production runs pay
    nothing.

    The ring is domain-local: a freshly spawned domain starts with an
    empty ring of its parent's capacity, so enabling tracing before
    fanning out to a domain pool enables it in every worker without any
    cross-domain contention.  Harvest with {!recent} on the worker that
    emitted the events. *)

type event = {
  seq : int;  (** monotonically increasing emission index *)
  label : string;
  a : int;
  b : int;
}

val set_capacity : int -> unit
(** [set_capacity n] keeps the last [n] events ([n <= 0] disables and
    clears).  Changing the capacity clears the ring. *)

val emit : ?a:int -> ?b:int -> string -> unit
(** Record an event ([a], [b] default to 0).  No-op when disabled; the
    label should be a literal so no formatting happens on the hot path. *)

val clear : unit -> unit

val recent : unit -> event list
(** Traced events, oldest first. *)

val pp_event : Format.formatter -> event -> unit

val dump : Format.formatter -> unit -> unit
(** Print every retained event, one per line, oldest first. *)
