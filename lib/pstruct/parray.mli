(** Fixed-size persistent array of 8-byte cells.

    All operations go through a {!Specpmt_txn.Ctx.ctx}: inside
    [run_tx] they are crash-atomic, with {!Specpmt_txn.Ctx.raw_ctx} they
    are direct (setup and verification). *)

open Specpmt_pmem
open Specpmt_txn

type t

val create : Ctx.ctx -> int -> t
(** [create ctx len] allocates [len] cells (uninitialised). *)

val length : t -> int
val base : t -> Addr.t

val addr : t -> int -> Addr.t
(** Cell address; raises [Invalid_argument] out of bounds. *)

val get : Ctx.ctx -> t -> int -> int
val set : Ctx.ctx -> t -> int -> int -> unit
val fill : Ctx.ctx -> t -> int -> unit
val to_list : Ctx.ctx -> t -> int list
