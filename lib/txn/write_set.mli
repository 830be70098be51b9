(** Per-transaction write-set index.

    For each 8-byte cell written by the open transaction it keeps the
    value it held before the first write (the undo image) and a
    backend-specific position of the cell's log entry, so repeated updates
    freshen a single entry — the paper's write-set indexing that keeps only
    the last update of a datum per transaction (Section 4). *)

open Specpmt_pmem

type slot = {
  mutable old_value : int;
      (** value before the transaction's first write (mutable only so the
          container can recycle slot records across transactions) *)
  mutable entry_pos : int;
      (** backend-specific position of the cell's log entry; [-1] if the
          backend has not materialised one *)
}

type t

val create : unit -> t

val clear : t -> unit
(** Forget every cell.  Costs O(cells in the transaction), however large
    an earlier transaction made the probe table.  The grown arrays and
    slot records are kept for the next transaction, unless their cell
    capacity is at least 64 times what this transaction used (counting
    at least 64 cells): then they go back to their initial 64-cell size,
    so one large transaction does not leave every later small one
    probing a table sized for it. *)

val size : t -> int

val record : t -> Addr.t -> old_value:int -> slot * bool
(** Note a write; [true] when this is the cell's first write in the
    transaction ([old_value] is only stored then). *)

val find : t -> Addr.t -> slot option

val iter_in_order : t -> (Addr.t -> slot -> unit) -> unit
(** Cells in first-write order, oldest first.  A straight walk over the
    flat cell arrays — no hashing, no allocation; this is the commit
    path. *)

val iter_newest_first : t -> (Addr.t -> slot -> unit) -> unit
(** Reverse order — the order an undo rollback applies compensation in. *)
