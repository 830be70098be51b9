(** Root-slot assignments of the hardware schemes.  SpecHPMT core i and
    the software runtime's thread i share root line 4 + i: {!spec_head}
    [i] is [Slots.spec_mt_head i] (see {!Specpmt_backends.Slots}).  So a
    pool hosts hardware schemes or software ones, never both; every
    crash-exploration target, bench measurement and example builds one
    family per device. *)

val ede_region : int
val hoop_head : int
val hoop_map_head : int

val spec_head : int -> int
(** Log head of SpecHPMT core [i] (0..3): slot [24 + 8i], on root line
    [4 + i]. *)

val spec_undo_region : int -> int
(** Undo region pointer of SpecHPMT core [i], beside its head. *)
