(** Root-slot assignments for the software backends.

    Slots 0–7 of the pool root area belong to applications; the rest are
    claimed here so that two software backends never collide on the same
    device.  The hardware schemes' slots are not disjoint from these:
    thread i's head shares root line 4 + i with SpecHPMT core i
    ([Specpmt_hwtxn.Hw_slots]), so a pool hosts one family of schemes. *)

let app_first = 0
let app_last = 7
let pmdk_region = 8
let kamino_region = 10
let spht_head = 12
let spht_marker = 13
let spec_head = 14
let hashlog_table = 15

let hashlog_committed_ts = 16
let hashlog_capacity = 17

(* The service layer's ordered-index directory: one cell pointing at a
   block of [shards; keys; order; header_0; ...; header_{n-1}] tree
   header addresses, written raw (store + flush + fence) at service
   creation and re-read by recovery to rediscover every shard's tree.
   Shares root-area line 3 (slots 16-23) with the hashlog slots, which
   is safe: both are published from the parent/router domain only. *)
let svc_index = 18

(* Per-thread speculative log heads for the multi-threaded runtime: one
   root slot per thread, strided one cache line (8 slots) apart.  Heads
   are published (store + clwb + fence) from the thread's owning domain;
   with the simulated media written back whole lines at a time, two
   heads sharing a line would overwrite each other when published from
   different domains.  [spec_mt_first = 24] puts head 0 at byte
   64 + 24*8 = 256 — line-aligned — and the stride keeps every further
   head on its own line.  The thread cap is the slot budget, not a
   hard-coded 3. *)
let spec_mt_first = 24
let spec_mt_stride = 8

let spec_mt_max_threads =
  (Specpmt_pmalloc.Layout.root_slot_count - spec_mt_first) / spec_mt_stride

let spec_mt_head i =
  if i < 0 || i >= spec_mt_max_threads then invalid_arg "Slots.spec_mt_head";
  spec_mt_first + (i * spec_mt_stride)
