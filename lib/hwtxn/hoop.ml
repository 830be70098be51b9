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
  ws : Write_set.t;
  mutable frees : Addr.t list;
      (* transactional frees deferred to commit: an uncommitted free must
         never become durable, or recovery could revive a pointer into a
         reallocated block *)
  mutable arena : Log_arena.t;
  mutable map_arena : Log_arena.t;
      (* address-mapping records (one per cache miss): they cost log
         traffic like the paper says, but they are translation metadata —
         recovery must never replay them as data writes *)
  mutable in_tx : bool;
  mutable tx_entries : (Addr.t * int) list; (* this tx, newest first *)
  tx_buffer : (Addr.t, int) Hashtbl.t;
      (* HOOP is out-of-place: uncommitted writes live in the on-chip
         buffer / log area and are redirected on read; they must never
         reach the home locations before commit, or a crash could leak
         them with no record to revoke them *)
  tx_read_lines : (Addr.t, unit) Hashtbl.t;
      (* lines read by the open transaction: HOOP's out-of-place
         redirection logs a record per cache miss as well as per update
         (Section 7.3), which is what inflates its log traffic on
         large-footprint applications *)
  mutable pending : (Addr.t * int) list list; (* committed, awaiting GC *)
  mutable pending_entries : int;
  gc_batch_entries : int;
  gc_contention : float;
      (** fraction of the GC's media-write occupancy that stalls the
          foreground (shared write-pending queue) *)
  stream_ns_per_update : float;
      (** on-chip log-buffer drain: WPQ acceptance plus the entry's share
          of log-write bandwidth, paid per update during the transaction *)
  buffer_probes : Specpmt_obs.Metrics.counter;
      (* [tx.buffer_probes]: read-own-writes lookups that actually probed
         the redirection buffer; the empty-buffer fast path keeps
         read-only transactions at zero probes *)
}

let block_bytes = 4096

(* Background GC: coalesce pending records, apply them to the home
   locations, prune the log.  Off the critical path except for the
   write-pending-queue contention stall charged to the foreground. *)
let gc t =
  let n = t.pending_entries in
  if n > 0 then begin
    let coalesced = Hashtbl.create 256 in
    List.iter
      (fun entries ->
        List.iter (fun (a, v) -> Hashtbl.replace coalesced a v) entries)
      (List.rev t.pending);
    Pmem.with_unmetered t.pm (fun () ->
        Hashtbl.iter
          (fun a v ->
            Pmem.store_int t.pm a v;
            Pmem.clwb t.pm a)
          coalesced;
        Pmem.sfence t.pm;
        ignore (Log_arena.compact t.arena);
        ignore (Log_arena.compact t.map_arena));
    (* WPQ occupancy of the burst: the GC streams record after record at
       the queue; only within-record locality helps it, cross-record
       coalescing saves media traffic (counted above) but not queue slots *)
    let burst_lines =
      List.fold_left
        (fun acc entries ->
          let lines = Hashtbl.create 8 in
          List.iter
            (fun (a, _) ->
              Hashtbl.replace lines (Specpmt_pmem.Addr.line_of a) ())
            entries;
          acc + Hashtbl.length lines)
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
    Pmem.charge_ns t.pm (occupancy *. t.gc_contention);
    t.pending <- [];
    t.pending_entries <- 0
  end

(* Read redirection with an empty-buffer fast path: a read-only
   transaction has no write intents buffered, so it must not pay a
   hashtable probe per cell.  The non-empty path uses the exception form
   of [find] — no option boxing per read. *)
let tx_read t a =
  if Hashtbl.length t.tx_buffer = 0 then Pmem.load_int t.pm a
  else begin
    Specpmt_obs.Metrics.incr t.buffer_probes;
    match Hashtbl.find t.tx_buffer a with
    | v -> v (* read redirection to the write intent *)
    | exception Not_found -> Pmem.load_int t.pm a
  end

let tx_write t a v =
  let old_value = tx_read t a in
  ignore (Write_set.record t.ws a ~old_value);
  (* on-chip buffering: a record per update, streamed to the log area
     through the write-pending queue during execution *)
  t.tx_entries <- (a, v) :: t.tx_entries;
  Hashtbl.replace t.tx_buffer a v;
  Pmem.charge_ns t.pm t.stream_ns_per_update

let commit t =
  (* the write intents become visible in the home locations only now *)
  Hashtbl.iter (fun a v -> Pmem.store_int t.pm a v) t.tx_buffer;
  Hashtbl.reset t.tx_buffer;
  let ts = Tsc.next t.tsc in
  (* per-cache-miss mapping records: logged (traffic + flush cost) into
     the separate mapping log, which recovery ignores *)
  if Hashtbl.length t.tx_read_lines > 0 then begin
    Log_arena.begin_record t.map_arena;
    Hashtbl.iter
      (fun line () ->
        ignore (Log_arena.add_entry t.map_arena ~target:line ~value:0))
      t.tx_read_lines;
    Log_arena.commit_record ~fence:false t.map_arena ~timestamp:ts
  end;
  Hashtbl.reset t.tx_read_lines;
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
  List.iter (fun a -> Heap.free t.heap a) (List.rev t.frees);
  t.frees <- [];
  Write_set.clear t.ws;
  t.in_tx <- false;
  if t.pending_entries >= t.gc_batch_entries then gc t

let rollback t =
  Hashtbl.reset t.tx_buffer;
  t.tx_entries <- [];
  t.frees <- [];
  Write_set.clear t.ws;
  t.in_tx <- false

let run_tx t f =
  if t.in_tx then invalid_arg "Hoop: nested transaction";
  t.in_tx <- true;
  let hooks = Ctx.Hooks.create () in
  let ctx =
    {
      Ctx.read =
        (fun a ->
          Hashtbl.replace t.tx_read_lines (Addr.line_of a) ();
          tx_read t a);
      write = (fun a v -> tx_write t a v);
      alloc = (fun n -> Heap.alloc t.heap n);
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
      (* a crash (or any other exception) escapes without committing:
         volatile hooks observe an aborted outcome *)
      Ctx.Hooks.fire hooks false;
      raise e

let recover t =
  Heap.recover t.heap;
  let touched = Hashtbl.create 256 in
  let max_ts, tail =
    Log_arena.recover_scan t.pm ~head_slot:Hw_slots.hoop_head
      ~block_bytes ~f:(fun ~ts:_ addrs vals n ->
        for i = 0 to n - 1 do
          Pmem.store_int t.pm addrs.(i) vals.(i);
          Hashtbl.replace touched addrs.(i) ()
        done)
  in
  Hashtbl.iter (fun a () -> Pmem.clwb t.pm a) touched;
  Pmem.sfence t.pm;
  Tsc.restart_above t.tsc max_ts;
  t.arena <- Log_arena.attach t.heap ~tail;
  (* the mapping log is never replayed: it is scanned only to find where
     its appends resume *)
  let _, map_tail =
    Log_arena.recover_scan t.pm ~head_slot:Hw_slots.hoop_map_head
      ~block_bytes ~f:(fun ~ts:_ _ _ _ -> ())
  in
  t.map_arena <- Log_arena.attach t.heap ~tail:map_tail;
  t.pending <- [];
  t.pending_entries <- 0;
  t.tx_entries <- [];
  t.frees <- [] (* deferred frees of a crashed transaction are dead *);
  Write_set.clear t.ws;
  t.in_tx <- false

let create ?(gc_batch_entries = 8192) ?(gc_contention = 0.4)
    ?(stream_ns_per_update = 5.0) heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      tsc = Tsc.create ();
      ws = Write_set.create ();
      frees = [];
      arena =
        Log_arena.create heap ~head_slot:Hw_slots.hoop_head ~block_bytes;
      map_arena =
        Log_arena.create heap ~head_slot:Hw_slots.hoop_map_head ~block_bytes;
      in_tx = false;
      tx_entries = [];
      tx_buffer = Hashtbl.create 64;
      tx_read_lines = Hashtbl.create 64;
      pending = [];
      pending_entries = 0;
      gc_batch_entries;
      gc_contention;
      stream_ns_per_update;
      buffer_probes = Specpmt_obs.Metrics.counter "tx.buffer_probes";
    }
  in
  {
    Ctx.name = "HOOP";
    run_tx = (fun f -> run_tx t f);
    recover = (fun () -> recover t);
    drain = (fun () -> gc t);
    log_footprint =
      (fun () -> Log_arena.footprint t.arena + Log_arena.footprint t.map_arena);
    supports_recovery = true;
  }
