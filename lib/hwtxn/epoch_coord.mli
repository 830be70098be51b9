(** Shared epoch registry for multi-threaded hardware SpecPMT
    (paper Section 5.2.2).

    Each thread registers when its epochs start and end (timestamps from
    the shared logical clock); before reclaiming an epoch, a thread asks
    whether any other thread's epoch that is still active overlaps it —
    the check that makes the Figure 11 data loss impossible.  The decision
    logic itself is the pure {!Epoch_protocol}. *)

type t

val create : unit -> t

val register_start : t -> thread:int -> eid:int -> start_ts:int -> unit
(** [startepoch]: a fresh, active epoch. *)

val register_end : t -> thread:int -> eid:int -> end_ts:int -> unit
(** The epoch stops accepting records (its thread started a newer one). *)

val may_reclaim : t -> thread:int -> eid:int -> bool
(** Whether the (ended) epoch can be reclaimed now: no other thread's
    live epoch started at or before its end. *)

val drop : t -> thread:int -> eid:int -> unit
(** The epoch's records are gone; forget its span. *)

val reset : t -> unit
(** Post-recovery: all pre-crash epochs are dead. *)

val spans : t -> Epoch_protocol.epoch_span list
(** Introspection for tests. *)
