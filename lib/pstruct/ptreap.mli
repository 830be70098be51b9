(** Persistent ordered map (treap with deterministic priorities).

    The ordered-map role of STAMP's red-black trees (vacation's tables)
    with much simpler rebalancing — and therefore smaller transactional
    write sets.  Priorities are a hash of the key, so runs are
    deterministic.  For the service layer's range scans, prefer
    {!Pbtree}: its fat nodes amortise the per-entry pointer chasing a
    binary treap pays on ordered walks. *)

open Specpmt_txn

type t

val create : Ctx.ctx -> t
(** Allocate an empty treap: one root cell in the transaction's heap
    holding the (initially null) root pointer. *)

val find : Ctx.ctx -> t -> int -> int option
(** The value bound to a key, or [None]. *)

val mem : Ctx.ctx -> t -> int -> bool
(** Whether the key is bound. *)

val update : Ctx.ctx -> t -> int -> int -> bool
(** Overwrite the value of an existing key; [false] if absent (no
    insertion, no rebalancing — a 1-cell write set). *)

val insert : Ctx.ctx -> t -> int -> int -> unit
(** Insert or overwrite, rebalancing by rotation. *)

val remove : Ctx.ctx -> t -> int -> bool
(** Delete a key by rotating its node to a leaf; [false] if it was not
    bound (nothing written). *)

val find_ceiling : Ctx.ctx -> t -> int -> (int * int) option
(** Smallest key [>= k] with its value. *)

val iter : Ctx.ctx -> t -> (int -> int -> unit) -> unit
(** In increasing key order. *)

val fold : Ctx.ctx -> t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** Fold over all bindings in increasing key order. *)

val length : Ctx.ctx -> t -> int
(** Number of bindings (walks the whole treap). *)
