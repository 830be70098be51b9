(** Fixed-region undo log of the software undo baselines (PMDK,
    Kamino-Tx).

    Layout: [capacity:8][count:8][entries ...], where an entry is the
    cell's address and, with [old_values], its old value.  The persistent
    [count] cell is the log's validity marker: every append persists the
    entry and the new count with a persist barrier before the caller may
    update data — the classical "a fence after each log" of Figure 2
    (left). *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  region_slot : int;
  words_per_entry : int;
  mutable region : Addr.t;
  mutable capacity : int;
  mutable count : int; (* cached copy of the persistent count *)
}

let entries_base r = r + 16
let count_addr r = r + 8

(* A region of [capacity] entries holding the first [count] entries of
   region [src]: header and entries are stored and flushed, and nothing
   points at the region yet. *)
let fill_region t capacity ~src ~count =
  let words = count * t.words_per_entry in
  let r = Heap.alloc_log t.heap (16 + (capacity * t.words_per_entry * 8)) in
  Pmem.store_int t.pm r capacity;
  for w = 0 to words - 1 do
    Pmem.store_int t.pm
      (entries_base r + (w * 8))
      (Pmem.load_int t.pm (entries_base src + (w * 8)))
  done;
  Pmem.store_int t.pm (count_addr r) count;
  Pmem.flush_range t.pm r (16 + (words * 8));
  r

(* Switch the region slot to region [r] with one barrier; the capacity
   lives in the region's header, where [attach] reads it *)
let publish t r capacity =
  Pmem.store_int t.pm (Heap.root_slot t.heap t.region_slot) r;
  Pmem.clwb t.pm (Heap.root_slot t.heap t.region_slot);
  Pmem.sfence t.pm;
  t.region <- r;
  t.capacity <- capacity

(* Copy, then switch: the open transaction's entries and their count are
   durable in the doubled region before the region slot names it, so a
   crash at any point recovers from a whole log, old or new. *)
let grow t =
  let old = t.region and capacity = t.capacity * 2 in
  let r = fill_region t capacity ~src:old ~count:t.count in
  Pmem.sfence t.pm;
  publish t r capacity;
  Heap.free t.heap old

(* Append an entry and make it durable: store the words, flush them,
   bump and flush the count, fence.  This is the per-update persist
   barrier whose removal is SpecPMT's whole point. *)
let append t a old =
  if t.count >= t.capacity then grow t;
  let base = entries_base t.region + (t.count * t.words_per_entry * 8) in
  Pmem.store_int t.pm base a;
  if t.words_per_entry = 2 then Pmem.store_int t.pm (base + 8) old;
  Pmem.flush_range t.pm base (t.words_per_entry * 8);
  t.count <- t.count + 1;
  Pmem.store_int t.pm (count_addr t.region) t.count;
  Pmem.clwb t.pm (count_addr t.region);
  Pmem.sfence t.pm

(* the commit marker: persist a zero count with one barrier *)
let truncate t =
  t.count <- 0;
  Pmem.store_int t.pm (count_addr t.region) 0;
  Pmem.clwb t.pm (count_addr t.region);
  Pmem.sfence t.pm

let undo t f =
  if t.words_per_entry = 1 then
    invalid_arg "Intent_log: address-only entries hold no old value";
  for i = t.count - 1 downto 0 do
    let base = entries_base t.region + (i * 16) in
    let a = Pmem.load_int t.pm base in
    f a (Pmem.load_int t.pm (base + 8))
  done

let view t =
  {
    Undo.append = append t;
    truncate = (fun () -> truncate t);
    undo = undo t;
    footprint = (fun () -> 16 + (t.capacity * t.words_per_entry * 8));
  }

let handle heap ~region_slot ~old_values =
  {
    heap;
    pm = Heap.pmem heap;
    region_slot;
    words_per_entry = (if old_values then 2 else 1);
    region = 0;
    capacity = 0;
    count = 0;
  }

let create heap ~region_slot ~old_values =
  let t = handle heap ~region_slot ~old_values in
  let capacity = 1024 in
  publish t (fill_region t capacity ~src:0 ~count:0) capacity;
  view t

let attach heap ~region_slot ~old_values =
  let t = handle heap ~region_slot ~old_values in
  let pm = t.pm in
  t.region <- Pmem.load_int pm (Heap.root_slot heap region_slot);
  (* the region's own header word, durable before the region slot names
     it (DESIGN.md §8 bug 11) *)
  t.capacity <- Pmem.load_int pm t.region;
  t.count <- Pmem.load_int pm (count_addr t.region);
  view t
