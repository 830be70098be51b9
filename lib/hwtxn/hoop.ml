(** HOOP — hardware-assisted out-of-place update (Cai et al., ISCA'20), as
    modelled in the paper's evaluation (Section 7.1.3).

    Writes are captured as redo records in a dedicated on-chip buffer and
    drained to a sequential persistent log at commit; data persistence is
    entirely off the critical path (a background garbage collector applies
    coalesced records to the home locations).  Per the paper's methodology
    we ignore address-redirection latency (optimistic for HOOP) and have
    the GC coalesce records before applying them.

    Two HOOP behaviours matter for the figures and are modelled here:
    - it logs a record per update (no in-transaction coalescing), which
      inflates its log traffic on large-footprint applications;
    - its GC bursts contend with foreground threads for the write-pending
      queue (the paper's explanation of why SpecHPMT outperforms it), as a
      foreground stall proportional to each GC batch. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  tsc : Tsc.t;
  shell : Ctx.Shell.t;
  mutable arena : Log_arena.t;
  mutable map_arena : Log_arena.t;
      (* address-mapping records (one per cache miss): they cost log
         traffic like the paper says, but they are translation metadata —
         recovery must never replay them as data writes *)
  mutable tx_entries : (Addr.t * int) list; (* this tx, newest first *)
  buffer : Log_arena.Lww.t;
      (* the open transaction's writes in first-write order, redirected
         on read: HOOP is out-of-place, so uncommitted writes must never
         reach the home locations before commit, or a crash could leak
         them with no record to revoke them *)
  tx_read_lines : Log_arena.Lww.t;
      (* lines read by the open transaction, in first-read order: HOOP's
         out-of-place redirection logs a record per cache miss as well as
         per update (Section 7.3), which is what inflates its log traffic
         on large-footprint applications *)
  mutable pending : (Addr.t * int) list list; (* committed, awaiting GC *)
  mutable pending_entries : int;
  buffer_probes : Specpmt_obs.Metrics.counter;
      (* [tx.buffer_probes]: read-own-writes lookups that actually probed
         the redirection buffer; the empty-buffer fast path keeps
         read-only transactions at zero probes *)
}

let block_bytes = 4096

(* log entries that trigger a GC cycle *)
let gc_batch_entries = 8192

(* fraction of the GC's media-write occupancy that stalls the foreground
   (shared write-pending queue) *)
let gc_contention = 0.4

(* on-chip log-buffer drain: WPQ acceptance plus the entry's share of
   log-write bandwidth, paid per update during the transaction *)
let stream_ns_per_update = 5.0

(* Background GC: coalesce pending records, apply them to the home
   locations, prune the log.  Off the critical path except for the
   write-pending-queue contention stall charged to the foreground. *)
let gc t =
  let n = t.pending_entries in
  if n > 0 then begin
    let coalesced = Log_arena.Lww.create () in
    List.iter
      (List.iter (fun (a, v) -> Log_arena.Lww.add coalesced a ~value:v ~ts:0))
      (List.rev t.pending);
    Pmem.with_unmetered t.pm (fun () ->
        Log_arena.Lww.iter coalesced (fun a ~value ~ts:_ ->
            Pmem.store_int t.pm a value;
            Pmem.clwb t.pm a);
        Pmem.sfence t.pm;
        ignore (Log_arena.compact t.arena);
        ignore (Log_arena.compact t.map_arena));
    (* WPQ occupancy of the burst: the GC streams record after record at
       the queue; only within-record locality helps it, cross-record
       coalescing saves media traffic (counted above) but not queue slots *)
    let burst_lines =
      List.fold_left
        (fun acc entries ->
          let lines = List.map (fun (a, _) -> Addr.line_of a) entries in
          acc + List.length (List.sort_uniq compare lines))
        0 t.pending
    in
    let occupancy =
      float_of_int burst_lines
      *. (Pmem.config t.pm).Specpmt_pmem.Config.pm_write_ns
    in
    Pmem.charge_bg_ns t.pm occupancy;
    (* the GC burst exhausts the shared write-pending queue: the working
       thread contends for it (the paper's explanation of HOOP's gap to
       SpecHPMT, Section 7.3) *)
    Pmem.charge_ns t.pm (occupancy *. gc_contention);
    t.pending <- [];
    t.pending_entries <- 0
  end

(* Read redirection with an empty-buffer fast path: a read-only
   transaction has no write intents buffered, so it must not pay a probe
   per cell. *)
let tx_read t a =
  if Log_arena.Lww.length t.buffer = 0 then Pmem.load_int t.pm a
  else begin
    Specpmt_obs.Metrics.incr t.buffer_probes;
    let p = Log_arena.Lww.pos t.buffer a in
    (* a hit redirects the read to the write intent *)
    if p >= 0 then Log_arena.Lww.value t.buffer p else Pmem.load_int t.pm a
  end

let tx_write t a v =
  ignore (tx_read t a);
  (* on-chip buffering: a record per update, streamed to the log area
     through the write-pending queue during execution *)
  t.tx_entries <- (a, v) :: t.tx_entries;
  Log_arena.Lww.add t.buffer a ~value:v ~ts:0;
  Pmem.charge_ns t.pm stream_ns_per_update

let commit t frees =
  (* the write intents become visible in the home locations only now *)
  Log_arena.Lww.iter t.buffer (fun a ~value ~ts:_ ->
      Pmem.store_int t.pm a value);
  Log_arena.Lww.clear t.buffer;
  let ts = Tsc.next t.tsc in
  (* per-cache-miss mapping records: logged (traffic + flush cost) into
     the separate mapping log, which recovery ignores *)
  if Log_arena.Lww.length t.tx_read_lines > 0 then begin
    Log_arena.begin_record t.map_arena;
    Log_arena.Lww.iter t.tx_read_lines (fun line ~value:_ ~ts:_ ->
        ignore (Log_arena.add_entry t.map_arena ~target:line ~value:0));
    Log_arena.commit_record ~fence:false t.map_arena ~timestamp:ts
  end;
  Log_arena.Lww.clear t.tx_read_lines;
  if t.tx_entries <> [] then begin
    Log_arena.begin_record t.arena;
    List.iter
      (fun (a, v) -> ignore (Log_arena.add_entry t.arena ~target:a ~value:v))
      (List.rev t.tx_entries);
    (* drain of the on-chip buffer: sequential log writes, no fence on the
       critical path (HOOP eliminates fences; ADR persists on acceptance) *)
    Log_arena.commit_record ~fence:false t.arena ~timestamp:ts;
    t.pending <- List.rev t.tx_entries :: t.pending;
    t.pending_entries <- t.pending_entries + List.length t.tx_entries
  end;
  t.tx_entries <- [];
  List.iter (fun a -> Heap.free t.heap a) frees;
  if t.pending_entries >= gc_batch_entries then gc t

(* drop everything the aborted transaction gathered: its write intents
   and the lines it read, which the next commit would otherwise log into
   its mapping record *)
let rollback t =
  Log_arena.Lww.clear t.buffer;
  Log_arena.Lww.clear t.tx_read_lines;
  t.tx_entries <- []

let recover t =
  Heap.recover t.heap;
  let max_ts, tails, _, _, _ =
    Log_arena.replay t.pm ~block_bytes [| Hw_slots.hoop_head |]
  in
  Tsc.restart_above t.tsc max_ts;
  t.arena <- Log_arena.attach t.heap ~tail:tails.(0);
  (* the mapping log is never replayed: it is scanned only to find where
     its appends resume *)
  let _, map_tail =
    Log_arena.recover_scan t.pm ~head_slot:Hw_slots.hoop_map_head
      ~block_bytes ~f:(fun ~ts:_ _ _ _ -> ())
  in
  t.map_arena <- Log_arena.attach t.heap ~tail:map_tail;
  t.pending <- [];
  t.pending_entries <- 0;
  (* a crash skips [rollback]: the next transaction must not inherit the
     interrupted one's writes or reads *)
  t.tx_entries <- [];
  Log_arena.Lww.clear t.buffer;
  Log_arena.Lww.clear t.tx_read_lines;
  Ctx.Shell.reset t.shell

let create heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      tsc = Tsc.create ();
      shell = Ctx.Shell.create "Hoop";
      arena =
        Log_arena.create heap ~head_slot:Hw_slots.hoop_head ~block_bytes;
      map_arena =
        Log_arena.create heap ~head_slot:Hw_slots.hoop_map_head ~block_bytes;
      tx_entries = [];
      buffer = Log_arena.Lww.create ();
      tx_read_lines = Log_arena.Lww.create ();
      pending = [];
      pending_entries = 0;
      buffer_probes = Specpmt_obs.Metrics.counter "tx.buffer_probes";
    }
  in
  let ctx =
    {
      (Ctx.Shell.ctx t.shell ~heap ~write:(tx_write t)) with
      read =
        (fun a ->
          Log_arena.Lww.add t.tx_read_lines (Addr.line_of a) ~value:0 ~ts:0;
          tx_read t a);
    }
  in
  let commit = commit t and rollback () = rollback t in
  {
    Ctx.name = "HOOP";
    run_tx =
      (fun f -> Ctx.Shell.run t.shell ctx ~start:ignore ~commit ~rollback f);
    recover = (fun () -> recover t);
    drain = (fun () -> gc t);
    log_footprint =
      (fun () -> Log_arena.footprint t.arena + Log_arena.footprint t.map_arena);
    supports_recovery = true;
  }
