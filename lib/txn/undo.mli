(** The undo-logging transaction (Figure 2, left): before a cell's first
    in-place store in a transaction, its old value goes to a persistent
    undo log; commit makes the data durable and truncates the log;
    recovery rolls an interrupted transaction back, newest entry first.

    The paper's undo baselines are one such transaction over different
    logs:
    - PMDK persists each (address, old value) entry with a flush and a
      fence (Section 7.1.2);
    - Kamino-Tx persists only the address and leaves data persistence to
      its backup copy (Section 7.1.2);
    - EDE writes each entry through the write-pending queue without a
      fence, ordered by the hardware's dependence tracking
      (Section 7.1.3). *)

open Specpmt_pmem
open Specpmt_pmalloc

type log = {
  append : Addr.t -> int -> unit;
      (** [append a old] makes [old], the value of cell [a] before its
          first store in the open transaction, durable before it
          returns — or, for a hardware log, ordered before that store. *)
  truncate : unit -> unit;
      (** Invalidate every entry: the undo commit marker. *)
  undo : (Addr.t -> int -> unit) -> unit;
      (** Visit every valid entry, newest first. *)
  footprint : unit -> int;  (** Persistent bytes of the log. *)
}

val revoke : Pmem.t -> log -> unit
(** Roll the log's transaction back: store and flush each entry's old
    value, newest first, fence, then truncate the log. *)

val create :
  name:string ->
  persist:bool ->
  log:log ->
  recover:(unit -> log, string) result ->
  Heap.t ->
  Ctx.backend
(** [create ~name ~persist ~log ~recover heap] runs undo-logging
    transactions over [log]:
    - a write appends the cell's old value on its first store;
    - commit flushes the write set and fences when [persist] is set,
      truncates the log and frees the deferred blocks;
    - rollback restores the old values newest first, flushing each when
      [persist] is set, and truncates the log.

    With [Ok attach], [recover] runs {!Specpmt_pmalloc.Heap.recover},
    reattaches the log with [attach], {!revoke}s it and adopts it for the
    transactions that follow.  With [Error why] the backend cannot
    recover: its [recover] raises [Invalid_argument why] and
    [supports_recovery] is false. *)
