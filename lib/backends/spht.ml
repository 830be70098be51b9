(** SPHT-style redo-logging transactions (Section 7.1.2).

    SPHT works on a volatile snapshot of the data (here: the in-place but
    still volatile cache copies), buffers write intents, and at commit
    persists one redo record sequentially plus a commit/link marker — a
    flush run and two fences on the critical path, no per-update fences,
    no data flushes.  A background replayer applies committed records to
    the persistent data and prunes the log (forward-linking version with
    one replayer thread, as evaluated in the paper).

    Recovery replays committed redo records oldest-first with
    [Log_arena.replay] over its one log — shares the chained log arena
    and its checksum commit marker. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  tsc : Tsc.t;
  buffer : Log_arena.Lww.t;
      (* the open transaction's writes in first-write order.  SPHT works
         on a volatile snapshot: uncommitted writes must not reach the
         persistent home locations — a crash could leak them past the
         pruned log with nothing to revoke them *)
  mutable arena : Log_arena.t;
  shell : Ctx.Shell.t;
  mutable pending : Addr.t list; (* committed, not yet replayed; newest first *)
  mutable pending_entries : int;
  replay_batch : int;
  buffer_probes : Specpmt_obs.Metrics.counter;
      (* [tx.buffer_probes]: read-own-writes lookups that actually probed
         the snapshot buffer.  Cached at create time (the backend is
         domain-local, like the registry cell) so the hot path pays no
         name lookup; the empty-buffer fast path below keeps read-only
         transactions at zero probes *)
}

(* Background replayer: persists the data updates of committed records and
   compacts the log.  Unmetered; estimated cost goes to the background
   ledger (a dedicated replayer core in the paper). *)
let replay t =
  let n = t.pending_entries in
  if n > 0 then begin
    Pmem.with_unmetered t.pm (fun () ->
        List.iter (Pmem.clwb t.pm) t.pending;
        Pmem.sfence t.pm;
        ignore (Log_arena.compact t.arena));
    (* per-entry flush plus its share of the log-prune scan *)
    Pmem.charge_bg_ns t.pm (float_of_int n *. 520.0);
    t.pending <- [];
    t.pending_entries <- 0
  end

(* Read-own-writes with an empty-buffer fast path: a read-only
   transaction (every scan) has nothing buffered, so it must not pay a
   probe per cell. *)
let tx_read t a =
  if Log_arena.Lww.length t.buffer = 0 then Pmem.load_int t.pm a
  else begin
    Specpmt_obs.Metrics.incr t.buffer_probes;
    let p = Log_arena.Lww.pos t.buffer a in
    if p >= 0 then Log_arena.Lww.value t.buffer p else Pmem.load_int t.pm a
  end

let tx_write t a v =
  ignore (tx_read t a);
  Log_arena.Lww.add t.buffer a ~value:v ~ts:0

let commit t frees =
  (* apply the snapshot to the home locations (volatile stores; the
     background replayer persists them) *)
  Log_arena.Lww.iter t.buffer (fun a ~value ~ts:_ ->
      Pmem.store_int t.pm a value);
  if Log_arena.Lww.length t.buffer > 0 then begin
    let ts = Tsc.next t.tsc in
    Log_arena.begin_record t.arena;
    Log_arena.Lww.iter t.buffer (fun a ~value:_ ~ts:_ ->
        let v = Pmem.load_int t.pm a in
        ignore (Log_arena.add_entry t.arena ~target:a ~value:v);
        t.pending <- a :: t.pending);
    Log_arena.commit_record t.arena ~timestamp:ts;
    (* forward-link / commit marker with its own barrier (fence #2) *)
    let marker = Heap.root_slot t.heap Slots.spht_marker in
    Pmem.store_int t.pm marker ts;
    Pmem.clwb t.pm marker;
    Pmem.sfence t.pm;
    t.pending_entries <- t.pending_entries + Log_arena.Lww.length t.buffer
  end;
  List.iter (fun a -> Heap.free t.heap a) frees;
  Log_arena.Lww.clear t.buffer;
  if t.pending_entries >= t.replay_batch then replay t

let rollback t = Log_arena.Lww.clear t.buffer

let recover t =
  Heap.recover t.heap;
  let max_ts, tails, _, _, _ =
    Log_arena.replay t.pm ~block_bytes:4096 [| Slots.spht_head |]
  in
  Tsc.restart_above t.tsc max_ts;
  t.arena <- Log_arena.attach t.heap ~tail:tails.(0);
  t.pending <- [];
  t.pending_entries <- 0;
  Log_arena.Lww.clear t.buffer (* a crash skips [rollback] *);
  Ctx.Shell.reset t.shell

let create heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      tsc = Tsc.create ();
      buffer = Log_arena.Lww.create ();
      arena = Log_arena.create heap ~head_slot:Slots.spht_head ~block_bytes:4096;
      shell = Ctx.Shell.create "Spht";
      pending = [];
      pending_entries = 0;
      replay_batch = 4096;
      buffer_probes = Specpmt_obs.Metrics.counter "tx.buffer_probes";
    }
  in
  let ctx =
    { (Ctx.Shell.ctx t.shell ~heap ~write:(tx_write t)) with read = tx_read t }
  in
  let commit = commit t and rollback () = rollback t in
  {
    Ctx.name = "SPHT";
    run_tx =
      (fun f -> Ctx.Shell.run t.shell ctx ~start:ignore ~commit ~rollback f);
    recover = (fun () -> recover t);
    drain = (fun () -> replay t);
    log_footprint = (fun () -> Log_arena.footprint t.arena);
    supports_recovery = true;
  }
