(** Root-slot assignments for the hardware schemes.  Slots 24, 32 and
    40 are also the software runtime's per-thread heads (see the
    interface): a pool hosts one family of schemes.  Renumbering them
    would move SpecHPMT's root lines, and with them its modelled
    numbers. *)

let ede_region = 21
let ede_capacity = 22
let hoop_head = 23
let spec_head = 24
let spec_undo_region = 25
let spec_undo_capacity = 26
let hoop_map_head = 27

(* per-thread slot triples for multi-threaded hardware SpecPMT: log head,
   undo region pointer, undo capacity *)
let mt_head i =
  if i < 0 || i > 3 then invalid_arg "Hw_slots.mt_head";
  32 + (i * 3)

let mt_undo_region i = mt_head i + 1
let mt_undo_capacity i = mt_head i + 2
