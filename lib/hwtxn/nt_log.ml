(** Fence-free hardware undo log.

    Hardware schemes (EDE, the cold-path of hardware SpecPMT) persist an
    undo record for each first update {e without} a fence: the entry is
    written through the write-pending queue (non-temporal), which is inside
    the ADR persistence domain, and the hardware's dependence tracking
    (EDE's contribution) guarantees the entry is accepted before the data
    store — our sequential interpreter gives that ordering for free, so no
    [sfence] is ever issued on the append path.

    Validity is self-describing.  The region starts with a {e generation}
    word; an entry is [addr, old, crc(gen, addr, old)].  Recovery scans
    from the base and stops at the first entry whose checksum does not
    match under the current generation — entries surviving from an earlier
    (truncated) transaction carry the old generation and fail the check.
    Truncation at commit is therefore a single non-temporal store of the
    bumped generation: no fence, no per-entry work. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  region_slot : int;
  mutable region : Addr.t;
  mutable capacity : int; (* entries *)
  mutable count : int;
  mutable gen : int;
  word : Bytes.t; (* the buffers every non-temporal store goes through *)
  entry : Bytes.t;
}

let entry_words = 3
let entry_bytes = entry_words * 8
let entries_base r = r + 8
let entry_crc ~gen ~addr ~old =
  Checksum.crc32c_word (Checksum.crc32c_pair 0 gen addr) old

let nt_store_word t a w =
  Bytes.set_int64_le t.word 0 (Int64.of_int w);
  Pmem.nt_store_bytes t.pm a t.word

let nt_store_entry t a w0 w1 w2 =
  Bytes.set_int64_le t.entry 0 (Int64.of_int w0);
  Bytes.set_int64_le t.entry 8 (Int64.of_int w1);
  Bytes.set_int64_le t.entry 16 (Int64.of_int w2);
  Pmem.nt_store_bytes t.pm a t.entry

(* Switch the region slot to region [r] with one barrier; the capacity
   lives in the region's allocation header, where [attach] reads it *)
let publish t r capacity =
  Pmem.store_int t.pm (Heap.root_slot t.heap t.region_slot) r;
  Pmem.clwb t.pm (Heap.root_slot t.heap t.region_slot);
  Pmem.sfence t.pm;
  t.region <- r;
  t.capacity <- capacity

let region_bytes capacity = 8 + (capacity * entry_bytes)

let create heap ~region_slot ~capacity =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      region_slot;
      region = 0;
      capacity = 0;
      count = 0;
      gen = 1;
      word = Bytes.create 8;
      entry = Bytes.create entry_bytes;
    }
  in
  let r = Heap.alloc_log heap (region_bytes capacity) in
  nt_store_word t r t.gen;
  publish t r capacity;
  t

let attach heap ~region_slot =
  let pm = Heap.pmem heap in
  let region = Pmem.load_int pm (Heap.root_slot heap region_slot) in
  (* the region's allocation header, persisted before the region slot
     names it (DESIGN.md §8 bug 6) *)
  let capacity = (Heap.usable_size heap region - 8) / entry_bytes in
  {
    heap;
    pm;
    region_slot;
    region;
    capacity;
    count = 0 (* unknown; scans are self-describing *);
    gen = Pmem.load_int pm region;
    word = Bytes.create 8;
    entry = Bytes.create entry_bytes;
  }

(** Persist one undo entry; no fence. *)
let append t ~addr ~old =
  if t.count >= t.capacity then begin
    (* rare: copy the open transaction's entries and the generation into
       a doubled region, then switch the region slot to it.  The copies
       are persistent on acceptance, ahead of the switch, so a crash at
       any point recovers from a whole log, old or new. *)
    let old_region = t.region and capacity = t.capacity * 2 in
    let r = Heap.alloc_log t.heap (region_bytes capacity) in
    for i = 0 to t.count - 1 do
      let src = entries_base old_region + (i * entry_bytes) in
      let w0 = Pmem.load_int t.pm src in
      let w1 = Pmem.load_int t.pm (src + 8) in
      let w2 = Pmem.load_int t.pm (src + 16) in
      nt_store_entry t (entries_base r + (i * entry_bytes)) w0 w1 w2
    done;
    nt_store_word t r t.gen;
    publish t r capacity;
    Heap.free t.heap old_region
  end;
  nt_store_entry t
    (entries_base t.region + (t.count * entry_bytes))
    addr old
    (entry_crc ~gen:t.gen ~addr ~old);
  t.count <- t.count + 1

(** Commit-side truncation: persist a new generation; one non-temporal
    store, no fence. *)
let truncate t =
  t.gen <- t.gen + 1;
  nt_store_word t t.region t.gen;
  t.count <- 0

(** Valid entries of the current generation, oldest first. *)
let scan t =
  let gen = Pmem.load_int t.pm t.region in
  let out = ref [] in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < t.capacity do
    let base = entries_base t.region + (!i * entry_bytes) in
    let addr = Pmem.load_int t.pm base in
    let old = Pmem.load_int t.pm (base + 8) in
    let crc = Pmem.load_int t.pm (base + 16) in
    if addr >= 0 && addr < Pmem.mem_size t.pm && crc = entry_crc ~gen ~addr ~old
    then begin
      out := (addr, old) :: !out;
      incr i
    end
    else stop := true
  done;
  List.rev !out

let footprint t = region_bytes t.capacity

let view t =
  {
    Undo.append = (fun addr old -> append t ~addr ~old);
    truncate = (fun () -> truncate t);
    undo =
      (fun f -> List.iter (fun (a, old) -> f a old) (List.rev (scan t)));
    footprint = (fun () -> footprint t);
  }

(** Address of the persistent generation word — hardware SpecPMT logs the
    generation bump inside its commit record, making that record the
    transaction's commit marker for the undo log too. *)
let gen_cell t = t.region

let generation t = t.gen
