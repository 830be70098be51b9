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
  ws : Write_set.t;
  tx_buffer : (Addr.t, int) Hashtbl.t;
      (* SPHT works on a volatile snapshot: uncommitted writes must not
         reach the persistent home locations — a crash could leak them
         past the pruned log with nothing to revoke them *)
  mutable arena : Log_arena.t;
  shell : Ctx.Shell.t;
  mutable pending : (Addr.t * int) list list; (* committed, not yet replayed *)
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
        List.iter
          (fun entries ->
            List.iter
              (fun (a, _v) -> Pmem.clwb t.pm a)
              entries)
          t.pending;
        Pmem.sfence t.pm;
        ignore (Log_arena.compact t.arena));
    (* per-entry flush plus its share of the log-prune scan *)
    Pmem.charge_bg_ns t.pm (float_of_int n *. 520.0);
    t.pending <- [];
    t.pending_entries <- 0
  end

(* Read-own-writes with an empty-write-set fast path: a read-only
   transaction (every scan) has nothing buffered, so it must not pay a
   hashtable probe per cell.  The non-empty path uses the exception
   form of [find] — no option boxing per read. *)
let tx_read t a =
  if Hashtbl.length t.tx_buffer = 0 then Pmem.load_int t.pm a
  else begin
    Specpmt_obs.Metrics.incr t.buffer_probes;
    match Hashtbl.find t.tx_buffer a with
    | v -> v
    | exception Not_found -> Pmem.load_int t.pm a
  end

let tx_write t a v =
  let old_value = tx_read t a in
  ignore (Write_set.record t.ws a ~old_value);
  Hashtbl.replace t.tx_buffer a v

let commit t frees =
  (* apply the snapshot to the home locations (volatile stores; the
     background replayer persists them) *)
  Hashtbl.iter (fun a v -> Pmem.store_int t.pm a v) t.tx_buffer;
  Hashtbl.reset t.tx_buffer;
  if Write_set.size t.ws > 0 then begin
    let ts = Tsc.next t.tsc in
    Log_arena.begin_record t.arena;
    let entries = ref [] in
    Write_set.iter_in_order t.ws (fun a _ ->
        let v = Pmem.load_int t.pm a in
        ignore (Log_arena.add_entry t.arena ~target:a ~value:v);
        entries := (a, v) :: !entries);
    Log_arena.commit_record t.arena ~timestamp:ts;
    (* forward-link / commit marker with its own barrier (fence #2) *)
    let marker = Heap.root_slot t.heap Slots.spht_marker in
    Pmem.store_int t.pm marker ts;
    Pmem.clwb t.pm marker;
    Pmem.sfence t.pm;
    t.pending <- !entries :: t.pending;
    t.pending_entries <- t.pending_entries + List.length !entries
  end;
  List.iter (fun a -> Heap.free t.heap a) frees;
  Write_set.clear t.ws;
  if t.pending_entries >= t.replay_batch then replay t

let rollback t =
  Hashtbl.reset t.tx_buffer;
  Write_set.clear t.ws

let recover t =
  Heap.recover t.heap;
  let max_ts, tails, _, _, _ =
    Log_arena.replay t.pm ~block_bytes:4096 [| Slots.spht_head |]
  in
  Tsc.restart_above t.tsc max_ts;
  t.arena <- Log_arena.attach t.heap ~tail:tails.(0);
  t.pending <- [];
  t.pending_entries <- 0;
  Write_set.clear t.ws;
  Ctx.Shell.reset t.shell

let create heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      tsc = Tsc.create ();
      ws = Write_set.create ();
      tx_buffer = Hashtbl.create 64;
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
