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
  ws : Write_set.t;
  mutable frees : Addr.t list;
      (* transactional frees deferred to commit: an uncommitted free must
         never become durable, or recovery could revive a pointer into a
         reallocated block *)
  mutable allocs : Addr.t list;
      (* allocations made by the open transaction: released again on
         rollback, otherwise an aborted transaction leaks them forever
         (frees are deferred; allocs must be compensated) *)
  mutable arena : Log_arena.t;
  mutable in_tx : bool;
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
  Phase.run Phase.Reclaim @@ fun () ->
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
  let slot, first = Write_set.record t.ws a ~old_value:(Pmem.load_int t.pm a) in
  if first then
    slot.Write_set.entry_pos <- Log_arena.add_entry t.arena ~target:a ~value:v
  else Log_arena.set_entry_value t.arena slot.Write_set.entry_pos v;
  Pmem.store_int t.pm a v

let commit t =
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
    Write_set.iter_in_order t.ws (fun a _ -> Pmem.clwb t.pm a);
    Pmem.sfence t.pm
  end;
  List.iter (fun a -> Heap.free t.heap a) (List.rev t.frees);
  t.frees <- [];
  t.allocs <- [];
  Write_set.clear t.ws;
  t.in_tx <- false;
  (* reclamation would rewrite the chain out from under the unsealed
     records; during a batch it is deferred to [batch_end] *)
  if not t.in_batch then maybe_reclaim t

(* Abort: restore the in-place (still volatile) updates from the write
   set, freshen the log entries to the restored values, and commit the
   record — the log then describes exactly the post-rollback state, which
   keeps the "every datum has a fresh committed record" invariant. *)
let rollback t =
  Write_set.iter_newest_first t.ws (fun a slot ->
      Pmem.store_int t.pm a slot.Write_set.old_value;
      Log_arena.set_entry_value t.arena slot.Write_set.entry_pos
        slot.Write_set.old_value);
  if Log_arena.entry_words t.arena = 0 then Log_arena.abandon_record t.arena
  else begin
    let ts = Tsc.next t.tsc in
    Log_arena.commit_record t.arena ~tentative:t.in_batch ~timestamp:ts
  end;
  (* compensate the aborted transaction's allocations: its deferred frees
     are simply dropped, but blocks it allocated would otherwise leak *)
  List.iter (fun a -> Heap.free t.heap a) t.allocs;
  t.allocs <- [];
  t.frees <- [];
  Write_set.clear t.ws;
  t.in_tx <- false

let run_tx t f =
  if t.in_tx then invalid_arg "Spec_soft: nested transaction";
  t.in_tx <- true;
  Log_arena.begin_record t.arena;
  (* outcome hooks live for exactly this transaction; fired from the
     dispatch arms below, never from [commit]/[rollback] themselves *)
  let hooks = Ctx.Hooks.create () in
  let ctx =
    {
      Ctx.read = (fun a -> Pmem.load_int t.pm a);
      write = (fun a v -> tx_write t a v);
      alloc =
        (fun n ->
          let a = Heap.alloc t.heap n in
          t.allocs <- a :: t.allocs;
          a);
      free = (fun a -> t.frees <- a :: t.frees);
      on_end = Ctx.Hooks.register hooks;
    }
  in
  match f ctx with
  | v ->
      commit t;
      Ctx.Hooks.fire hooks true;
      v
  | exception Ctx.Abort ->
      rollback t;
      Ctx.Hooks.fire hooks false;
      raise Ctx.Abort
  | exception e ->
      (* a device crash (or any other error) escapes without commit or
         rollback; the hooks still learn the transaction did not commit,
         so volatile caches drop their staged deltas *)
      Ctx.Hooks.fire hooks false;
      raise e

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
  if t.in_tx then invalid_arg "Spec_soft.batch_begin: open transaction";
  if t.in_batch then invalid_arg "Spec_soft.batch_begin: batch already open";
  if t.params.data_persist then
    invalid_arg
      "Spec_soft.batch_begin: data-persist mode fences per transaction";
  t.in_batch <- true

let batch_end t =
  if not t.in_batch then invalid_arg "Spec_soft.batch_end: no open batch";
  if t.in_tx then invalid_arg "Spec_soft.batch_end: open transaction";
  t.in_batch <- false;
  let sealed = Log_arena.seal_tentative t.arena in
  (* reclamation was deferred while records were unsealed *)
  maybe_reclaim t;
  sealed

(* ---------- Recovery ---------- *)

(* Recovery (Section 3.1).  Both modes first establish the valid record
   prefix (the torn record of an interrupted transaction fails its
   checksum and ends the scan); they differ in how the surviving entries
   reach the data cells.

   [Replay] is the paper's replay-every-record loop, oldest first: every
   entry is stored, stale ones are overwritten by fresher ones — O(log)
   data writes.  [Coalesce] folds the same scan into a last-writer-wins
   index and then writes each live cell exactly once, line by line —
   O(live) data writes.  Replay is kept as the differential-testing
   oracle for the coalescing path.  Either way the scan is the log's
   only walk: it returns the tail the arena reattaches at.  Returns
   (cells restored, max timestamp, tail). *)
let restore t =
  let open Specpmt_obs in
  let pm = t.pm and head_slot = t.head_slot in
  let block_bytes = t.params.block_bytes in
  match t.params.recovery with
  | Coalesce ->
      let index = Log_arena.Lww.create () in
      let max_ts, records, entries, tail =
        Log_arena.recover_collect pm ~head_slot ~block_bytes ~index
      in
      let live = Log_arena.Lww.length index in
      Log_arena.apply_collected pm index;
      Metrics.add (Metrics.counter "recover.records_scanned") records;
      Metrics.add (Metrics.counter "recover.entries_scanned") entries;
      Metrics.add (Metrics.counter "recover.data_writes") live;
      (live, max_ts, tail)
  | Replay ->
      let touched = Hashtbl.create 256 in
      let records = ref 0 and entries = ref 0 in
      let max_ts, tail =
        Log_arena.recover_scan pm ~head_slot ~block_bytes
          ~f:(fun ~ts:_ addrs vals n ->
            incr records;
            entries := !entries + n;
            for i = 0 to n - 1 do
              Pmem.store_int pm addrs.(i) vals.(i);
              Hashtbl.replace touched addrs.(i) ()
            done)
      in
      Hashtbl.iter (fun a () -> Pmem.clwb pm a) touched;
      Pmem.sfence pm;
      Metrics.add (Metrics.counter "recover.records_scanned") !records;
      Metrics.add (Metrics.counter "recover.entries_scanned") !entries;
      Metrics.add (Metrics.counter "recover.data_writes") !entries;
      (Hashtbl.length touched, max_ts, tail)

(* Reattach the arena at the tail its recovery scan found, and drop the
   volatile state of any transaction or batch the crash interrupted. *)
let reattach t ~tail =
  t.arena <- Log_arena.attach t.heap ~tail;
  t.frees <- [] (* deferred frees of a crashed transaction are dead *);
  t.allocs <- [] (* likewise its allocations: Heap.recover owns the walk *);
  Write_set.clear t.ws;
  t.in_tx <- false;
  t.in_batch <- false (* an unsealed batch died with the crash *)

let recover t =
  let open Specpmt_obs in
  Phase.run Phase.Recover @@ fun () ->
  (* restore first: the heap walk must see the restored image *)
  let restored, max_ts, tail = restore t in
  Heap.recover t.heap;
  Tsc.restart_above t.tsc max_ts;
  reattach t ~tail;
  Metrics.incr (Metrics.counter "recover.cycles");
  Metrics.add (Metrics.counter "recover.cells_restored") restored;
  Trace.emit "spec.recover" ~a:restored ~b:max_ts

let snapshot_region t addr len =
  assert (Addr.is_word_aligned addr && len mod 8 = 0);
  let backend_ctx_write = tx_write t in
  if t.in_tx then invalid_arg "Spec_soft.snapshot_region: open transaction";
  t.in_tx <- true;
  Log_arena.begin_record t.arena;
  for i = 0 to (len / 8) - 1 do
    let a = addr + (i * 8) in
    backend_ctx_write a (Pmem.load_int t.pm a)
  done;
  commit t

(* Switching crash-consistency mechanisms (Section 4.3.1): because
   SpecPMT uses in-place updates, leaving speculative logging only
   requires persisting the dirty durable data at the transition point.
   The flush set is every cell the live log covers, found with one scan
   of the log — O(log).  Once done, the speculative log is no longer
   needed and is emptied, and any other mechanism (undo, redo...) may run
   on the same pool from then on. *)
let switch_out t =
  if t.in_tx then invalid_arg "Spec_soft.switch_out: open transaction";
  if t.in_batch then invalid_arg "Spec_soft.switch_out: open batch";
  (* 1: persist every datum with a live record *)
  let touched = Hashtbl.create 256 in
  ignore
    (Log_arena.recover_scan t.pm ~head_slot:t.head_slot
       ~block_bytes:t.params.block_bytes ~f:(fun ~ts:_ addrs _ n ->
         for i = 0 to n - 1 do
           Hashtbl.replace touched addrs.(i) ()
         done));
  Hashtbl.iter (fun a () -> Pmem.clwb t.pm a) touched;
  Pmem.sfence t.pm;
  (* 2: the log is now dead weight and must be durably invalidated — not
     just trimmed.  Records left alive in the tail block are a time bomb:
     once another mechanism owns the pool and mutates the same cells, any
     later scan from the head slot would replay the stale speculative
     values over the new owner's committed data.  [reset] persists an
     end-of-log sentinel before recycling the other blocks. *)
  Log_arena.reset t.arena;
  Hashtbl.length touched

let create ?(head_slot = Slots.spec_head) ?tsc heap params =
  let pm = Heap.pmem heap in
  let t =
    {
      heap;
      pm;
      params;
      head_slot;
      tsc = (match tsc with Some c -> c | None -> Tsc.create ());
      ws = Write_set.create ();
      frees = [];
      allocs = [];
      arena =
        Log_arena.create heap ~head_slot
          ~block_bytes:params.block_bytes;
      in_tx = false;
      in_batch = false;
      reclaims = 0;
      last_compact_footprint = params.block_bytes;
    }
  in
  let backend =
    {
      Ctx.name = (if params.data_persist then "SpecSPMT-DP" else "SpecSPMT");
      run_tx = (fun f -> run_tx t f);
      recover = (fun () -> recover t);
      drain = (fun () -> ());
      log_footprint = (fun () -> Log_arena.footprint t.arena);
      supports_recovery = true;
    }
  in
  (backend, t)
