(** Root-slot assignments of the hardware schemes.  Three of them are
    also software slots (see {!Specpmt_backends.Slots}): {!spec_head}
    (24) is [Slots.spec_mt_head 0], [mt_head 0] (32) is
    [Slots.spec_mt_head 1] and [mt_undo_capacity 2] (40) is
    [Slots.spec_mt_head 2].  So a pool hosts hardware schemes or
    software ones, never both; every crash-exploration target, bench
    measurement and example builds one family per device. *)

val ede_region : int
val ede_capacity : int
val hoop_head : int
val hoop_map_head : int
val spec_head : int
val spec_undo_region : int
val spec_undo_capacity : int

val mt_head : int -> int
(** Per-core log head of the multi-core pool (0..3). *)

val mt_undo_region : int -> int
val mt_undo_capacity : int -> int
