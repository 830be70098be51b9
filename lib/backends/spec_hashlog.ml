(** Hash-table speculative log — the memory-saving alternative the paper
    rejects (Section 4): one (dual-versioned) log slot per datum, located
    by hashing its address.

    Conserves memory (at most two records per cell) but turns the log
    write and flush pattern from sequential to random, which is exactly
    what persistent memory dislikes; the paper measured a 3.2x slowdown
    over the sequential log design.  We keep two versions per bucket so
    that the previous committed value survives an uncommitted overwrite,
    preserving recoverability.

    Bucket layout (one 64-byte line): two versions of
    [addr+1:8][value:8][ts:8][crc:8] — the stored address is biased by one
    so that a zeroed slot is empty. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  tsc : Tsc.t;
  ws : Log_arena.Lww.t; (* cell -> undo image, first-write order *)
  shell : Ctx.Shell.t;
  mutable table : Addr.t;
  mutable buckets : int;
  mutable touched : Addr.t list; (* bucket lines dirtied by the open tx *)
}

let bucket_bytes = 64
let version_bytes = 32

let slot_crc ~addr ~value ~ts =
  Checksum.crc32c_word (Checksum.crc32c_pair 0 (addr + 1) value) ts

let bucket_addr t i = t.table + (i * bucket_bytes)

let hash a =
  (* Fibonacci hashing on the cell index *)
  let h = (a lsr 3) * 0x1E3779B97F4A7C15 in
  (h lsr 17) land max_int

let find_bucket t a =
  let n = t.buckets in
  let start = hash a mod n in
  let rec probe i tries =
    if tries > n then invalid_arg "Spec_hashlog: table full";
    let b = bucket_addr t i in
    let a0 = Pmem.load_int t.pm b in
    if a0 = 0 || a0 = a + 1 then b
    else
      let a1 = Pmem.load_int t.pm (b + version_bytes) in
      if a1 = a + 1 then b else probe ((i + 1) mod n) (tries + 1)
  in
  probe start 0

(* Write [value] into the bucket's version that does not hold the newest
   other-timestamp record: re-logging within the same transaction reuses
   the same version; otherwise the older version is sacrificed. *)
let write_version t a value ts =
  let b = find_bucket t a in
  let ts0 = Pmem.load_int t.pm (b + 16) in
  let ts1 = Pmem.load_int t.pm (b + version_bytes + 16) in
  let v_off =
    if Pmem.load_int t.pm b = a + 1 && ts0 = ts then 0
    else if Pmem.load_int t.pm (b + version_bytes) = a + 1 && ts1 = ts then
      version_bytes
    else if ts0 <= ts1 then 0
    else version_bytes
  in
  let base = b + v_off in
  Pmem.store_int t.pm base (a + 1);
  Pmem.store_int t.pm (base + 8) value;
  Pmem.store_int t.pm (base + 16) ts;
  Pmem.store_int t.pm (base + 24) (slot_crc ~addr:a ~value ~ts);
  if not (List.mem b t.touched) then t.touched <- b :: t.touched

let tx_write t a v =
  let old_value = Pmem.load_int t.pm a in
  ignore (Log_arena.Lww.bind t.ws a ~value:old_value ~ts:0);
  write_version t a v (Tsc.peek t.tsc);
  Pmem.store_int t.pm a v

let committed_ts_addr t = Heap.root_slot t.heap Slots.hashlog_committed_ts

let commit t frees =
  let ts = Tsc.peek t.tsc in
  ignore (Tsc.next t.tsc);
  (* random-pattern flushes: the lines of every touched bucket *)
  List.iter (fun b -> Pmem.flush_range t.pm b bucket_bytes) t.touched;
  Pmem.sfence t.pm;
  Pmem.store_int t.pm (committed_ts_addr t) ts;
  Pmem.clwb t.pm (committed_ts_addr t);
  Pmem.sfence t.pm;
  List.iter (fun a -> Heap.free t.heap a) frees;
  t.touched <- [];
  Log_arena.Lww.clear t.ws

let rollback t =
  Log_arena.Lww.iter_newest_first t.ws (fun a ~value ~ts:_ ->
      Pmem.store_int t.pm a value;
      write_version t a value (Tsc.peek t.tsc));
  commit t []

let recover t =
  Heap.recover t.heap;
  t.table <- Pmem.load_int t.pm (Heap.root_slot t.heap Slots.hashlog_table);
  t.buckets <-
    Pmem.load_int t.pm (Heap.root_slot t.heap Slots.hashlog_capacity);
  let committed = Pmem.load_int t.pm (committed_ts_addr t) in
  (* write back the freshest valid version per address not newer than
     the last committed timestamp, in bucket-scan order.  A newer version
     is a crashed transaction's, which the restarted counter would commit
     again: retire it under the same fence (timestamp 0, poisoned
     checksum), keeping its address word so the bucket keeps its owner. *)
  let best = Log_arena.Lww.create () in
  for i = 0 to t.buckets - 1 do
    let b = bucket_addr t i in
    List.iter
      (fun off ->
        let v = b + off in
        let a1 = Pmem.load_int t.pm v in
        if a1 > 0 then begin
          let a = a1 - 1 in
          let value = Pmem.load_int t.pm (v + 8) in
          let ts = Pmem.load_int t.pm (v + 16) in
          let crc = Pmem.load_int t.pm (v + 24) in
          if ts > committed then begin
            Pmem.store_int t.pm (v + 16) 0;
            Pmem.store_int t.pm (v + 24)
              (lnot (slot_crc ~addr:a ~value ~ts:0));
            Pmem.clwb t.pm v
          end
          else if crc = slot_crc ~addr:a ~value ~ts then
            Log_arena.Lww.add best a ~value ~ts
        end)
      [ 0; version_bytes ]
  done;
  Log_arena.Lww.iter best (fun a ~value ~ts:_ ->
      Pmem.store_int t.pm a value;
      Pmem.clwb t.pm a);
  Pmem.sfence t.pm;
  Tsc.restart_above t.tsc committed;
  t.touched <- [];
  Log_arena.Lww.clear t.ws;
  Ctx.Shell.reset t.shell

let create heap =
  let pm = Heap.pmem heap in
  (* the table takes a sixteenth of the pool *)
  let buckets = max 256 (Pmem.mem_size pm / (16 * bucket_bytes)) in
  let table = Heap.alloc_log heap (buckets * bucket_bytes) in
  Pmem.with_unmetered pm (fun () ->
      for i = 0 to buckets - 1 do
        Pmem.store_int pm (table + (i * bucket_bytes)) 0;
        Pmem.store_int pm (table + (i * bucket_bytes) + version_bytes) 0
      done;
      Pmem.store_int pm (Layout.root_slot Slots.hashlog_table) table;
      Pmem.store_int pm (Layout.root_slot Slots.hashlog_capacity) buckets;
      Pmem.store_int pm (Layout.root_slot Slots.hashlog_committed_ts) 0;
      Pmem.flush_range pm (Layout.root_slot Slots.hashlog_table) 24;
      Pmem.sfence pm);
  let t =
    {
      heap;
      pm;
      tsc = Tsc.create ();
      ws = Log_arena.Lww.create ();
      shell = Ctx.Shell.create "Spec_hashlog";
      table;
      buckets;
      touched = [];
    }
  in
  let ctx = Ctx.Shell.ctx t.shell ~heap ~write:(tx_write t) in
  let commit = commit t and rollback () = rollback t in
  {
    Ctx.name = "Spec-hashlog";
    run_tx =
      (fun f -> Ctx.Shell.run t.shell ctx ~start:ignore ~commit ~rollback f);
    recover = (fun () -> recover t);
    drain = (fun () -> ());
    log_footprint = (fun () -> t.buckets * bucket_bytes);
    supports_recovery = true;
  }
