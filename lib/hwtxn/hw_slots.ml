(** Root-slot assignments for the hardware schemes.  SpecHPMT core i
    keeps its slots on root line 4 + i, the line of the software
    runtime's thread-i head (see the interface): a pool hosts one family
    of schemes. *)

let ede_region = 21
let hoop_head = 23
let hoop_map_head = 27

(* SpecHPMT core i: log head and undo region pointer, one cache line
   (8 slots) per core from slot 24; a standalone runtime is core 0 *)
let spec_head i =
  if i < 0 || i > 3 then invalid_arg "Hw_slots.spec_head";
  24 + (i * 8)

let spec_undo_region i = spec_head i + 1
