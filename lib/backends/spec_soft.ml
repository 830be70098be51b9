open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type recovery_mode = Coalesce | Replay

type params = {
  data_persist : bool;
  block_bytes : int;
  reclaim_bytes : int;
  recovery : recovery_mode;
}

let default_params =
  {
    data_persist = false;
    block_bytes = 4096;
    reclaim_bytes = 1 lsl 20;
    recovery = Coalesce;
  }

let dp_params = { default_params with data_persist = true }

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  params : params;
  head_slot : int;
  tsc : Tsc.t;
  ws : Log_arena.Lww.t;
      (* cell -> undo image ([value]) and the position of its entry in
         the open record ([ts]), in first-write order *)
  shell : Ctx.Shell.t;
  mutable allocs : Addr.t list;
      (* allocations made by the open transaction: released again on
         rollback, otherwise an aborted transaction leaks them forever
         (frees are deferred; allocs must be compensated) *)
  mutable arena : Log_arena.t;
  mutable in_batch : bool;
      (* group commit open: transactions commit tentative (poisoned
         checksum, no fence) records until [batch_end] seals the whole
         batch under a single fence *)
  mutable reclaims : int;
  mutable last_compact_footprint : int;
      (* growth-based trigger: reclaiming again before the log has grown
         past twice the last compacted size would make reclamation cost
         quadratic when the live set itself exceeds the threshold *)
}

let params t = t.params
let pmem t = t.pm

(* ---------- Reclamation ---------- *)

(* Background reclamation (Section 4.2): runs on a dedicated core in the
   paper, so its memory operations are unmetered here and an estimated
   cost — O(log) scan + O(live) copy — is charged to the background
   ledger instead. *)
let reclaim t =
  let open Specpmt_obs in
  let stats =
    Pmem.with_unmetered t.pm (fun () -> Log_arena.compact t.arena)
  in
  t.reclaims <- t.reclaims + 1;
  let scan_ns = float_of_int stats.Log_arena.entries_scanned *. 6.0 in
  let copy_ns = float_of_int stats.Log_arena.entries_live *. 30.0 in
  Pmem.charge_bg_ns t.pm (scan_ns +. copy_ns);
  Metrics.add (Metrics.counter "reclaim.bg_ns")
    (int_of_float (scan_ns +. copy_ns));
  Metrics.incr (Metrics.counter "reclaim.cycles");
  Metrics.add (Metrics.counter "reclaim.blocks_freed")
    stats.Log_arena.blocks_freed;
  Metrics.add (Metrics.counter "reclaim.entries_scanned")
    stats.Log_arena.entries_scanned;
  Metrics.add (Metrics.counter "reclaim.entries_live")
    stats.Log_arena.entries_live;
  Hist.observe
    (Metrics.histogram "reclaim.entries_scanned_per_cycle")
    stats.Log_arena.entries_scanned;
  Trace.emit "spec.reclaim" ~a:stats.Log_arena.blocks_freed
    ~b:stats.Log_arena.entries_live;
  stats

let reclaim_now t = reclaim t
let reclaim_count t = t.reclaims

(* Footprint trigger, checked after every commit: compact once the log
   outgrows [reclaim_bytes] and at least doubles its last compacted
   size. *)
let maybe_reclaim t =
  let foot = Log_arena.footprint t.arena in
  if foot > t.params.reclaim_bytes && foot > 2 * t.last_compact_footprint
  then begin
    ignore (reclaim t);
    t.last_compact_footprint <- Log_arena.footprint t.arena
  end

(* ---------- Transactions ---------- *)

let tx_write t a v =
  let n = Log_arena.Lww.length t.ws in
  let p = Log_arena.Lww.bind t.ws a ~value:(Pmem.load_int t.pm a) ~ts:(-1) in
  if p < n then Log_arena.set_entry_value t.arena (Log_arena.Lww.ts t.ws p) v
  else
    Log_arena.Lww.set_ts t.ws p
      (Log_arena.add_entry t.arena ~target:a ~value:v);
  Pmem.store_int t.pm a v

let commit t frees =
  (* a read-only transaction has nothing to persist and must not emit a
     zero-entry record (it would read as the end-of-log sentinel) *)
  if Log_arena.entry_words t.arena = 0 then Log_arena.abandon_record t.arena
  else begin
    let ts = Tsc.next t.tsc in
    Log_arena.commit_record t.arena ~tentative:t.in_batch ~timestamp:ts
  end;
  if t.params.data_persist then begin
    (* SpecSPMT-DP: also force the in-place updates into the persistence
       domain before returning (what vanilla SpecPMT deliberately skips) *)
    Log_arena.Lww.iter t.ws (fun a ~value:_ ~ts:_ -> Pmem.clwb t.pm a);
    Pmem.sfence t.pm
  end;
  List.iter (fun a -> Heap.free t.heap a) frees;
  t.allocs <- [];
  Log_arena.Lww.clear t.ws;
  (* reclamation would rewrite the chain out from under the unsealed
     records; during a batch it is deferred to [batch_end] *)
  if not t.in_batch then maybe_reclaim t

(* Abort: restore the in-place (still volatile) updates from the write
   set, freshen the log entries to the restored values, and commit the
   record — the log then describes exactly the post-rollback state, which
   keeps the "every datum has a fresh committed record" invariant. *)
let rollback t =
  Log_arena.Lww.iter_newest_first t.ws (fun a ~value ~ts:entry ->
      Pmem.store_int t.pm a value;
      Log_arena.set_entry_value t.arena entry value);
  if Log_arena.entry_words t.arena = 0 then Log_arena.abandon_record t.arena
  else begin
    let ts = Tsc.next t.tsc in
    Log_arena.commit_record t.arena ~tentative:t.in_batch ~timestamp:ts
  end;
  (* compensate the aborted transaction's allocations: its deferred frees
     are simply dropped, but blocks it allocated would otherwise leak *)
  List.iter (fun a -> Heap.free t.heap a) t.allocs;
  t.allocs <- [];
  Log_arena.Lww.clear t.ws

(* ---------- Group commit ---------- *)

(* Between [batch_begin] and [batch_end] every transaction commits a
   tentative record: checksum deliberately poisoned, no flush, no fence.
   [batch_end] patches the true checksums and persists the entire batch
   with one flush run and a single fence — K transactions share the one
   ordering point SpecPMT has left, so the per-transaction fence cost
   tends to 1/K.  A crash before the seal makes the whole batch invisible
   (the valid-prefix scan stops at the first poisoned checksum); a crash
   inside the seal durably commits a prefix of the batch in order. *)

let in_batch t = t.in_batch

let batch_begin t =
  if Ctx.Shell.is_open t.shell then
    invalid_arg "Spec_soft.batch_begin: open transaction";
  if t.in_batch then invalid_arg "Spec_soft.batch_begin: batch already open";
  if t.params.data_persist then
    invalid_arg
      "Spec_soft.batch_begin: data-persist mode fences per transaction";
  t.in_batch <- true

let batch_end t =
  if not t.in_batch then invalid_arg "Spec_soft.batch_end: no open batch";
  if Ctx.Shell.is_open t.shell then
    invalid_arg "Spec_soft.batch_end: open transaction";
  t.in_batch <- false;
  let sealed = Log_arena.seal_tentative t.arena in
  (* reclamation was deferred while records were unsealed *)
  maybe_reclaim t;
  sealed

(* ---------- Recovery ---------- *)

(* Recovery (Section 3.1) of the runtimes that share one timestamp
   counter (Section 5.2.2; a standalone runtime is a set of one).  Both
   modes establish each log's valid record prefix — the torn record of an
   interrupted transaction fails its checksum and ends the scan — and
   differ in how the surviving entries reach the data cells.  [Replay] is
   the paper's loop ([Log_arena.replay]): every entry of every log is
   stored, oldest first — O(log) data writes; it is kept as the
   differential-testing oracle.  [Coalesce] ([Log_arena.coalesce])
   gathers all scans into one buffer sized for [log_bytes / 16] entries,
   sorts it by line and writes each live cell once, from its newest
   entry, line by line — O(live) data writes.  Either way each scan is
   its log's only walk and returns the tail it reattaches at.  Returns
   (cells restored, max timestamp, tails). *)
let restore pm params ~log_bytes head_slots =
  let open Specpmt_obs in
  let block_bytes = params.block_bytes in
  let max_ts, tails, records, entries, cells =
    match params.recovery with
    | Coalesce -> Log_arena.coalesce pm ~block_bytes ~log_bytes head_slots
    | Replay -> Log_arena.replay pm ~block_bytes head_slots
  in
  let writes =
    match params.recovery with Coalesce -> cells | Replay -> entries
  in
  Metrics.add (Metrics.counter "recover.records_scanned") records;
  Metrics.add (Metrics.counter "recover.entries_scanned") entries;
  Metrics.add (Metrics.counter "recover.data_writes") writes;
  (cells, max_ts, tails)

(* Reattach the arena at the tail its recovery scan found, and drop the
   volatile state of any transaction or batch the crash interrupted. *)
let reattach t ~tail =
  t.arena <- Log_arena.attach t.heap ~tail;
  t.allocs <- [] (* Heap.recover owns a crashed transaction's allocations *);
  Log_arena.Lww.clear t.ws;
  Ctx.Shell.reset t.shell;
  t.in_batch <- false (* an unsealed batch died with the crash *)

(* Rebuild the heaps, restore, restart the counter, reattach.  The first
   two may run in either order: SpecSPMT never logs an allocator header
   (allocation is not a logged store) and a size-class free list never
   places a header on a former data cell, so the restore writes no cell
   the heap walk reads.  (SpecHPMT logs its header stores, so its heap
   walk must follow its replay.)  [pm] is the pool's parent view: in the
   data plane each runtime holds its worker domain's view. *)
let recover_threads pm ~heaps rts =
  let open Specpmt_obs in
  List.iter Heap.recover heaps;
  (* every log block lies in one of [heaps]' log zones *)
  let log_bytes =
    List.fold_left (fun n h -> n + Heap.log_zone_bytes h) 0 heaps
  in
  let restored, max_ts, tails =
    restore pm rts.(0).params ~log_bytes
      (Array.map (fun rt -> rt.head_slot) rts)
  in
  Tsc.restart_above rts.(0).tsc max_ts;
  Array.iteri (fun i rt -> reattach rt ~tail:tails.(i)) rts;
  Metrics.incr (Metrics.counter "recover.cycles");
  Metrics.add (Metrics.counter "recover.cells_restored") restored;
  Trace.emit "spec.recover" ~a:restored ~b:max_ts

let recover t = recover_threads t.pm ~heaps:[ t.heap ] [| t |]

let snapshot_region t addr len =
  assert (Addr.is_word_aligned addr && len mod 8 = 0);
  if Ctx.Shell.is_open t.shell then
    invalid_arg "Spec_soft.snapshot_region: open transaction";
  Log_arena.begin_record t.arena;
  for i = 0 to (len / 8) - 1 do
    let a = addr + (i * 8) in
    tx_write t a (Pmem.load_int t.pm a)
  done;
  commit t []

(* Switching crash-consistency mechanisms (Section 4.3.1): because
   SpecPMT uses in-place updates, leaving speculative logging only
   requires persisting the dirty durable data at the transition point.
   The flush set is every cell the live log covers, found with one scan
   of the log — O(log).  Once done, the speculative log is no longer
   needed and is emptied, and any other mechanism (undo, redo...) may run
   on the same pool from then on. *)
let switch_out t =
  if Ctx.Shell.is_open t.shell then
    invalid_arg "Spec_soft.switch_out: open transaction";
  if t.in_batch then invalid_arg "Spec_soft.switch_out: open batch";
  (* 1: persist every datum with a live record, in the order the log
     first covers it *)
  let covered, _, _, _, _ =
    Log_arena.recover_collect t.pm ~head_slot:t.head_slot
      ~block_bytes:t.params.block_bytes
  in
  Log_arena.Lww.iter covered (fun a ~value:_ ~ts:_ -> Pmem.clwb t.pm a);
  Pmem.sfence t.pm;
  (* 2: the log is now dead weight and must be durably invalidated — not
     just trimmed.  Records left alive in the tail block are a time bomb:
     once another mechanism owns the pool and mutates the same cells, any
     later scan from the head slot would replay the stale speculative
     values over the new owner's committed data.  [reset] persists an
     end-of-log sentinel before recycling the other blocks. *)
  Log_arena.reset t.arena;
  Log_arena.Lww.length covered

let create ?(head_slot = Slots.spec_head) ?tsc heap params =
  let pm = Heap.pmem heap in
  let t =
    {
      heap;
      pm;
      params;
      head_slot;
      tsc = (match tsc with Some c -> c | None -> Tsc.create ());
      ws = Log_arena.Lww.create ();
      shell = Ctx.Shell.create "Spec_soft";
      allocs = [];
      arena =
        Log_arena.create heap ~head_slot
          ~block_bytes:params.block_bytes;
      in_batch = false;
      reclaims = 0;
      last_compact_footprint = params.block_bytes;
    }
  in
  let ctx =
    {
      (Ctx.Shell.ctx t.shell ~heap ~write:(tx_write t)) with
      alloc =
        (fun n ->
          let a = Heap.alloc heap n in
          t.allocs <- a :: t.allocs;
          a);
    }
  in
  let start () = Log_arena.begin_record t.arena in
  let commit = commit t and rollback () = rollback t in
  let backend =
    {
      Ctx.name = (if params.data_persist then "SpecSPMT-DP" else "SpecSPMT");
      run_tx = (fun f -> Ctx.Shell.run t.shell ctx ~start ~commit ~rollback f);
      recover = (fun () -> recover t);
      drain = (fun () -> ());
      log_footprint = (fun () -> Log_arena.footprint t.arena);
      supports_recovery = true;
    }
  in
  (backend, t)
