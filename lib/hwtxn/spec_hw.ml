open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn
open Specpmt_hwsim

(* How hot pages are detected (paper Section 6, "Alternative Designs"):
   the proposed hardware uses TLB-resident saturating counters; the
   alternative offloads detection to software, sampling page write counts
   (via a PMU or page-table scanning) with periodic decay — no TLB
   changes, but coarser and unconstrained by TLB residency. *)
type hotness =
  | Tlb_counters
  | Software_sampled of { decay_period : int }
      (** halve all page counters every [decay_period] transactional
          writes — the staleness of sampling-based detection *)

type params = { hw : Hwconfig.t; data_persist : bool; hotness : hotness }

let default_params =
  { hw = Hwconfig.default; data_persist = false; hotness = Tlb_counters }

let dp_params = { default_params with data_persist = true }

(* Record timestamps carry a kind bit: [2*ts] for bulk page-adoption
   records, [2*ts + 1] for transaction commit records.  Scan order within
   the per-thread log is chronological either way. *)
let page_kind ts = 2 * ts
let commit_kind ts = (2 * ts) + 1

type epoch = {
  eid : int;
  boundary : Addr.t; (* first log block of the epoch *)
  mutable pages : int list; (* pages whose records live (also) here *)
  mutable bytes : int;
}

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  params : params;
  thread_id : int;
  coord : Epoch_coord.t; (* shared in multi-threaded pools *)
  head_slot : int;
  undo_region_slot : int;
  undo_capacity_slot : int;
  tlb : Tlb.t;
  mutable l1 : L1tags.t;
  mutable undo : Nt_log.t;
  tsc : Tsc.t;
  ws : Write_set.t;
  mutable frees : Addr.t list;
      (* transactional frees deferred to commit: an uncommitted free must
         never become durable, or recovery could revive a pointer into a
         reallocated block *)
  mutable arena : Log_arena.t;
  (* the single source of truth for logging decisions: a page is hot iff
     it has live speculative records.  The value is the page's hotness
     claims, one per thread holding live records for it (newest epoch id
     each); the page only goes cold when the last claim is reclaimed.
     This is the DRAM-side epoch metadata of Figure 10, shared by every
     thread of the pool. *)
  spec_pages : (int, (int * int) list) Hashtbl.t;
  mutable closed_epochs : epoch list; (* oldest first *)
  mutable cur : epoch;
  mutable in_tx : bool;
  (* statistics *)
  soft_counters : (int, int) Hashtbl.t; (* Software_sampled mode *)
  mutable soft_ops : int;
  mutable n_transitions : int;
  mutable n_hot_writes : int;
  mutable n_cold_writes : int;
  mutable n_reclaims : int;
  mutable n_epochs : int;
  mutable peak_log : int;
}

(* upsert this thread's hotness claim on a page *)
let claim t page =
  let claims =
    Option.value ~default:[] (Hashtbl.find_opt t.spec_pages page)
  in
  let others = List.filter (fun (tid, _) -> tid <> t.thread_id) claims in
  let mine = (t.thread_id, t.cur.eid) in
  let fresh = not (List.mem mine claims) in
  Hashtbl.replace t.spec_pages page (mine :: others);
  fresh

(* drop this thread's claim if it belongs to epoch [eid]; the page goes
   cold only when no thread holds a claim any more *)
let unclaim t page ~eid =
  match Hashtbl.find_opt t.spec_pages page with
  | None -> ()
  | Some claims ->
      let rest =
        List.filter (fun c -> c <> (t.thread_id, eid)) claims
      in
      if rest = [] then Hashtbl.remove t.spec_pages page
      else Hashtbl.replace t.spec_pages page rest

let transitions t = t.n_transitions
let l1_tx_evictions t = L1tags.tx_evictions t.l1
let hot_writes t = t.n_hot_writes
let cold_writes t = t.n_cold_writes
let reclaims t = t.n_reclaims
let epochs_started t = t.n_epochs
let peak_log_bytes t = t.peak_log
let is_hot_page t ~page = Hashtbl.mem t.spec_pages page
let tlb t = t.tlb

let note_footprint t =
  let f = Log_arena.footprint t.arena in
  if f > t.peak_log then t.peak_log <- f


(* Cold-to-hot transition: the bulk-copy engine snapshots the page into
   the log as a standalone committed record — fence-free; its flushes are
   persistent on write-pending-queue acceptance and the engine orders them
   before the EpochBit is set (Section 5.1). *)
let transition t page (e : Tlb.entry) =
  let base = page * Addr.page_size in
  let ts = page_kind (Tsc.next t.tsc) in
  Log_arena.append_page_record t.arena ~timestamp:ts ~page_base:base;
  e.Tlb.epoch_bit <- true;
  e.Tlb.cnt_eid <- t.cur.eid;
  ignore (claim t page);
  t.cur.pages <- page :: t.cur.pages;
  t.cur.bytes <- t.cur.bytes + Addr.page_size + 40;
  t.n_transitions <- t.n_transitions + 1;
  (match Sys.getenv_opt "SPEC_HW_DEBUG" with
  | Some _ -> Printf.eprintf "transition page=%d addr=%#x\n%!" page base
  | None -> ());
  note_footprint t

let tx_write t a v =
  let page = Addr.page_index a in
  let e = Tlb.access t.tlb ~page in
  let old_value = Pmem.load_int t.pm a in
  let _, first = Write_set.record t.ws a ~old_value in
  let tag = L1tags.touch t.l1 ~line:(Addr.line_of a) in
  tag.L1tags.tx_dirty <- true;
  tag.L1tags.logbit <- true;
  if Hashtbl.mem t.spec_pages page then begin
    (* hot: live records cover the page; no undo, no flush, plain store.
       A page evicted from the TLB and re-touched re-adopts its coverage
       without a fresh bulk copy.  The PBit marks the line for lazy
       persistence on eviction (Figure 9). *)
    tag.L1tags.pbit <- true;
    if not e.Tlb.epoch_bit then begin
      e.Tlb.epoch_bit <- true;
      e.Tlb.cnt_eid <-
        (match Hashtbl.find t.spec_pages page with
        | (_, eid) :: _ -> eid
        | [] -> t.cur.eid)
    end;
    t.n_hot_writes <- t.n_hot_writes + 1
  end
  else begin
    (* cold: fence-free hardware undo logging, then hotness tracking *)
    if first then Nt_log.append t.undo ~addr:a ~old:old_value;
    t.n_cold_writes <- t.n_cold_writes + 1;
    (match t.params.hotness with
    | Tlb_counters ->
        if e.Tlb.cnt_eid < t.params.hw.Hwconfig.hot_threshold then
          e.Tlb.cnt_eid <- e.Tlb.cnt_eid + 1;
        if e.Tlb.cnt_eid >= t.params.hw.Hwconfig.hot_threshold then
          transition t page e
    | Software_sampled { decay_period } ->
        t.soft_ops <- t.soft_ops + 1;
        if t.soft_ops mod decay_period = 0 then
          Hashtbl.filter_map_inplace
            (fun _ c -> if c >= 2 then Some (c / 2) else None)
            t.soft_counters;
        let c =
          1 + Option.value ~default:0 (Hashtbl.find_opt t.soft_counters page)
        in
        Hashtbl.replace t.soft_counters page c;
        if c >= t.params.hw.Hwconfig.hot_threshold then begin
          Hashtbl.remove t.soft_counters page;
          transition t page e
        end)
  end;
  Pmem.store_int t.pm a v

(* Reclaim the oldest closed epoch (Section 5.2.1), in the foreground:
   (1) persist the data of every page whose records live in that epoch —
       after this, committed values no longer depend on those records;
   (2) [clearepoch]: drop the TLB hotness state of that epoch, and stop
       treating pages as hot unless newer epochs re-logged them;
   (3) free the chain prefix with one atomic head-pointer switch. *)
let reclaim_oldest t =
  match t.closed_epochs with
  | [] -> false
  | e :: rest ->
      (* Section 5.2.2: defer if any other thread's still-active epoch
         overlaps this one (the Figure 11 data-loss scenario) *)
      if not (Epoch_coord.may_reclaim t.coord ~thread:t.thread_id ~eid:e.eid)
      then false
      else begin
        let pages = List.sort_uniq compare e.pages in
        List.iter
          (fun p -> Pmem.flush_range t.pm (p * Addr.page_size) Addr.page_size)
          pages;
        Pmem.sfence t.pm;
        ignore (Tlb.clear_epoch t.tlb ~eid:e.eid);
        List.iter (fun p -> unclaim t p ~eid:e.eid) pages;
        let keep_from =
          match rest with e2 :: _ -> e2.boundary | [] -> t.cur.boundary
        in
        ignore (Log_arena.drop_prefix t.arena ~keep_from);
        t.closed_epochs <- rest;
        Epoch_coord.drop t.coord ~thread:t.thread_id ~eid:e.eid;
        t.n_reclaims <- t.n_reclaims + 1;
        true
      end

(* [startepoch]: seal the block so the epoch boundary is also a record and
   block boundary; pick a free 3-bit epoch ID (0 is reserved for cold),
   reclaiming the oldest epoch first if all seven are taken.  When
   reclamation is deferred by the multi-thread protocol, the new epoch is
   deferred too — the current one simply keeps accumulating ("the software
   defers the check and log reclamation to further transaction starts or
   commits", Section 5.2.2). *)
let free_eid t =
  let used = t.cur.eid :: List.map (fun e -> e.eid) t.closed_epochs in
  let rec find i =
    if i > 7 then None else if List.mem i used then find (i + 1) else Some i
  in
  find 1

let start_epoch t =
  (match free_eid t with None -> ignore (reclaim_oldest t) | Some _ -> ());
  match free_eid t with
  | None -> ()
  | Some eid ->
      Log_arena.seal_block t.arena;
      let now = Tsc.peek t.tsc in
      Epoch_coord.register_end t.coord ~thread:t.thread_id ~eid:t.cur.eid
        ~end_ts:now;
      t.closed_epochs <- t.closed_epochs @ [ t.cur ];
      Epoch_coord.register_start t.coord ~thread:t.thread_id ~eid
        ~start_ts:now;
      t.cur <-
        {
          eid;
          boundary = Log_arena.current_block t.arena;
          pages = [];
          bytes = 0;
        };
      t.n_epochs <- t.n_epochs + 1

let maybe_epoch_work t =
  let hw = t.params.hw in
  if
    t.cur.bytes > hw.Hwconfig.epoch_max_bytes
    || List.length t.cur.pages > hw.Hwconfig.epoch_max_pages
  then start_epoch t;
  let progressing = ref true in
  while
    !progressing
    && Log_arena.footprint t.arena > hw.Hwconfig.log_budget_bytes
    && t.closed_epochs <> []
  do
    progressing := reclaim_oldest t
  done

let gen_cell t = Nt_log.gen_cell t.undo

(* Route a non-application durable store (allocator metadata) through the
   hybrid logging machinery: the hardware intercepts every store to a hot
   page, including the allocator's.  Without this, a page-adoption record
   that captured a header cell would stale-replay it at recovery and
   corrupt the allocator. *)
let log_cell t a = tx_write t a (Pmem.load_int t.pm a)

let commit t =
  (* (0) clear the deferred frees' headers through the logged-store path:
     the clears become durable exactly with the commit record (or are
     revoked with it), never before — a free that outlived a revoked
     unlink would let recovery revive a pointer into a reallocated
     block.  The blocks only reach the free list after the fence. *)
  List.iter
    (fun a ->
      let size = Heap.usable_size t.heap a in
      tx_write t (a - 8) (size lsl 1))
    (List.rev t.frees);
  (* (1) cold data first: flushes are persistent on acceptance, so a
     checksum-valid commit record always implies durable cold data *)
  let hot = ref [] in
  Write_set.iter_in_order t.ws (fun a _ ->
      if Hashtbl.mem t.spec_pages (Addr.page_index a) then hot := a :: !hot
      else Pmem.clwb t.pm a);
  (* (2) the commit record: hot values plus the undo-generation bump that
     serves as the transaction's commit marker *)
  let ts = Tsc.next t.tsc in
  Log_arena.begin_record t.arena;
  let hot_pages = Hashtbl.create 8 in
  List.iter
    (fun a ->
      ignore
        (Log_arena.add_entry t.arena ~target:a ~value:(Pmem.load_int t.pm a));
      Hashtbl.replace hot_pages (Addr.page_index a) ())
    (List.rev !hot);
  ignore
    (Log_arena.add_entry t.arena ~target:(gen_cell t)
       ~value:(Nt_log.generation t.undo + 1));
  if t.params.data_persist then List.iter (fun a -> Pmem.clwb t.pm a) !hot;
  Log_arena.commit_record ~fence:false t.arena ~timestamp:(commit_kind ts);
  (* (3) the transaction's single fence *)
  Pmem.sfence t.pm;
  (* (4) fence-free undo truncation *)
  Nt_log.truncate t.undo;
  (* (5) the transaction is durable: release the freed blocks *)
  List.iter (fun a -> Heap.register_free t.heap a) (List.rev t.frees);
  t.frees <- [];
  (* commit-time L1 scan: LogBits clear, PBits stay (Section 5.1) *)
  L1tags.end_tx t.l1;
  (* epoch bookkeeping *)
  let entries = Hashtbl.length hot_pages in
  t.cur.bytes <- t.cur.bytes + ((List.length !hot + 1) * 16) + 24;
  Hashtbl.iter
    (fun p () -> if claim t p then t.cur.pages <- p :: t.cur.pages)
    hot_pages;
  ignore entries;
  Write_set.clear t.ws;
  t.in_tx <- false;
  note_footprint t;
  maybe_epoch_work t

let rollback t =
  (* restore from the volatile write set, then commit the (now no-op)
     record so the log matches the restored state *)
  Write_set.iter_newest_first t.ws (fun a slot ->
      Pmem.store_int t.pm a slot.Write_set.old_value);
  t.frees <- [];
  commit t

let run_tx t f =
  if t.in_tx then invalid_arg "Spec_hw: nested transaction";
  t.in_tx <- true;
  (* outcome hooks fire from these dispatch arms, never from
     [commit]/[rollback] — [rollback] itself ends in [commit] *)
  let hooks = Ctx.Hooks.create () in
  let ctx =
    {
      Ctx.read = (fun a -> Pmem.load_int t.pm a);
      write = (fun a v -> tx_write t a v);
      alloc =
        (fun n ->
          let a = Heap.alloc t.heap n in
          (* the header store is a durable store like any other *)
          log_cell t (a - 8);
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
      Ctx.Hooks.fire hooks false;
      raise e

(* Recovery (Section 5.1.1): replay the valid (committed) records in
   chronological order — this also replays each record's generation bump,
   so after replay the persistent generation cell identifies the one
   possibly-interrupted transaction; its undo entries are then still valid
   under that generation and are applied to revoke the interruption. *)
let recover t =
  let touched = Hashtbl.create 1024 in
  let pages = Hashtbl.create 64 in
  let max_ts = ref 0 in
  let _, tail =
    Log_arena.recover_scan t.pm ~head_slot:t.head_slot
      ~block_bytes:t.params.hw.Hwconfig.spec_block_bytes
      ~f:(fun ~ts addrs vals n ->
        if ts lsr 1 > !max_ts then max_ts := ts lsr 1;
        for i = 0 to n - 1 do
          let a = addrs.(i) in
          Pmem.store_int t.pm a vals.(i);
          Hashtbl.replace touched a ();
          Hashtbl.replace pages (Addr.page_index a) ()
        done)
  in
  Hashtbl.iter (fun a () -> Pmem.clwb t.pm a) touched;
  Pmem.sfence t.pm;
  let undo =
    Nt_log.attach t.heap ~region_slot:t.undo_region_slot
      ~capacity_slot:t.undo_capacity_slot
  in
  let pending = Nt_log.scan undo in
  List.iter
    (fun (a, old) ->
      Pmem.store_int t.pm a old;
      Pmem.clwb t.pm a)
    (List.rev pending);
  Pmem.sfence t.pm;
  Nt_log.truncate undo;
  (* the runtime must adopt the reattached log: its cached generation now
     matches the persistent cell; keeping the stale handle would emit undo
     entries under a dead generation, invisible to the next recovery *)
  t.undo <- undo;
  (* the allocator walk must run on the RESTORED image: replay rewrites
     header cells (they are logged stores like any other), so walking
     before it would rebuild free lists from a stale mixture *)
  Heap.recover t.heap;
  Tsc.restart_above t.tsc !max_ts;
  (* rebuild volatile hotness state: every page with live records is hot
     and owned by the (single) fresh epoch *)
  t.arena <- Log_arena.attach t.heap ~tail;
  Tlb.flush t.tlb;
  (* forget this thread's hotness claims; shared-pool recovery (Mt) resets
     the whole table before recovering each thread *)
  Hashtbl.iter
    (fun p claims ->
      match List.filter (fun (tid, _) -> tid <> t.thread_id) claims with
      | [] -> Hashtbl.remove t.spec_pages p
      | rest -> Hashtbl.replace t.spec_pages p rest)
    (Hashtbl.copy t.spec_pages);
  t.closed_epochs <- [];
  let head = Pmem.load_int t.pm (Heap.root_slot t.heap t.head_slot) in
  t.cur <- { eid = 1; boundary = head; pages = []; bytes = 0 };
  Epoch_coord.reset_thread t.coord ~thread:t.thread_id;
  Epoch_coord.register_start t.coord ~thread:t.thread_id ~eid:1
    ~start_ts:(Tsc.peek t.tsc);
  Hashtbl.iter
    (fun p () ->
      ignore (claim t p);
      t.cur.pages <- p :: t.cur.pages)
    pages;
  t.frees <- [] (* deferred frees of a crashed transaction are dead *);
  Write_set.clear t.ws;
  t.in_tx <- false

let create ?(thread = 0) ?tsc ?coord ?spec_pages
    ?(head_slot = Hw_slots.spec_head)
    ?(undo_region_slot = Hw_slots.spec_undo_region)
    ?(undo_capacity_slot = Hw_slots.spec_undo_capacity) heap params =
  let pm = Heap.pmem heap in
  let arena =
    Log_arena.create heap ~head_slot
      ~block_bytes:params.hw.Hwconfig.spec_block_bytes
  in
  let coord = match coord with Some c -> c | None -> Epoch_coord.create () in
  Epoch_coord.register_start coord ~thread ~eid:1 ~start_ts:0;
  let t =
    {
      heap;
      pm;
      params;
      thread_id = thread;
      coord;
      head_slot;
      undo_region_slot;
      undo_capacity_slot;
      tlb = Tlb.create params.hw pm;
      l1 =
        L1tags.create ~lines:params.hw.Hwconfig.l1_lines
          ~on_tx_evict:(fun tag ->
            (* a transaction-dirty line overflowing L1 is speculatively
               logged before the eviction (Section 5.2): its log write is
               charged here; the write set still carries the cells, so the
               commit record stays authoritative for recovery *)
            if tag.L1tags.pbit then
              Pmem.charge_ns pm
                (Pmem.config pm).Specpmt_pmem.Config.pm_seq_write_ns);
      undo =
        Nt_log.create heap ~region_slot:undo_region_slot
          ~capacity_slot:undo_capacity_slot ~capacity:1024;
      tsc = (match tsc with Some c -> c | None -> Tsc.create ());
      ws = Write_set.create ();
      frees = [];
      arena;
      spec_pages =
        (match spec_pages with Some h -> h | None -> Hashtbl.create 256);
      soft_counters = Hashtbl.create 256;
      soft_ops = 0;
      closed_epochs = [];
      cur =
        {
          eid = 1;
          boundary = Log_arena.current_block arena;
          pages = [];
          bytes = 0;
        };
      in_tx = false;
      n_transitions = 0;
      n_hot_writes = 0;
      n_cold_writes = 0;
      n_reclaims = 0;
      n_epochs = 1;
      peak_log = 0;
    }
  in
  let backend =
    {
      Ctx.name = (if params.data_persist then "SpecHPMT-DP" else "SpecHPMT");
      run_tx = (fun f -> run_tx t f);
      recover = (fun () -> recover t);
      drain = (fun () -> ());
      log_footprint = (fun () -> Log_arena.footprint t.arena);
      supports_recovery = true;
    }
  in
  (backend, t)

(* ------------------------------------------------------------------ *)

module Mt = struct
  type pool = {
    mt_heap : Heap.t;
    mt_pm : Pmem.t;
    mt_tsc : Tsc.t;
    mt_coord : Epoch_coord.t;
    mt_spec_pages : (int, (int * int) list) Hashtbl.t;
    runtimes : t array;
    mutable backends : Ctx.backend array;
  }

  let create ?(params = default_params) heap ~threads =
    if threads < 1 || threads > 4 then invalid_arg "Spec_hw.Mt: 1-4 threads";
    let tsc = Tsc.create () in
    let coord = Epoch_coord.create () in
    let spec_pages = Hashtbl.create 256 in
    let pairs =
      Array.init threads (fun i ->
          create ~thread:i ~tsc ~coord ~spec_pages
            ~head_slot:(Hw_slots.mt_head i)
            ~undo_region_slot:(Hw_slots.mt_undo_region i)
            ~undo_capacity_slot:(Hw_slots.mt_undo_capacity i)
            heap params)
    in
    {
      mt_heap = heap;
      mt_pm = Heap.pmem heap;
      mt_tsc = tsc;
      mt_coord = coord;
      mt_spec_pages = spec_pages;
      runtimes = Array.map snd pairs;
      backends = Array.map fst pairs;
    }

  let thread p i = p.backends.(i)
  let runtime p i = p.runtimes.(i)
  let threads p = Array.length p.runtimes
  let coordinator p = p.mt_coord

  (* Recovery (Sections 5.1.1 and 5.2.2): collect every core's valid
     records, replay them in global timestamp order (page-adoption and
     commit records alike), then revoke each core's interrupted
     transaction from its own undo log — each under its own generation
     cell, replayed to the right value by its own commit records. *)
  let recover p =
    let records = ref [] in
    let touched = Hashtbl.create 1024 in
    let pages_per_thread = Array.make (threads p) [] in
    let max_ts = ref 0 in
    let tails =
      Array.mapi
        (fun i rt ->
          snd
            (Log_arena.recover_scan p.mt_pm ~head_slot:rt.head_slot
               ~block_bytes:rt.params.hw.Hwconfig.spec_block_bytes
               ~f:(fun ~ts addrs vals n ->
                 if ts lsr 1 > !max_ts then max_ts := ts lsr 1;
                 (* sorted globally below: copy out of the scan buffer *)
                 records :=
                   (ts, i, Array.sub addrs 0 n, Array.sub vals 0 n)
                   :: !records)))
        p.runtimes
    in
    let ordered =
      List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !records
    in
    List.iter
      (fun (_, i, addrs, vals) ->
        Array.iteri
          (fun k a ->
            Pmem.store_int p.mt_pm a vals.(k);
            Hashtbl.replace touched a ();
            pages_per_thread.(i) <-
              Addr.page_index a :: pages_per_thread.(i))
          addrs)
      ordered;
    Hashtbl.iter (fun a () -> Pmem.clwb p.mt_pm a) touched;
    Pmem.sfence p.mt_pm;
    (* per-core undo: at most one interrupted transaction each *)
    Array.iter
      (fun rt ->
        let undo =
          Nt_log.attach p.mt_heap ~region_slot:rt.undo_region_slot
            ~capacity_slot:rt.undo_capacity_slot
        in
        let pending = Nt_log.scan undo in
        List.iter
          (fun (a, old) ->
            Pmem.store_int p.mt_pm a old;
            Pmem.clwb p.mt_pm a)
          (List.rev pending);
        Pmem.sfence p.mt_pm;
        Nt_log.truncate undo;
        rt.undo <- undo)
      p.runtimes;
    Heap.recover p.mt_heap;
    Tsc.restart_above p.mt_tsc !max_ts;
    Epoch_coord.reset p.mt_coord;
    Hashtbl.reset p.mt_spec_pages;
    Array.iteri
      (fun i rt ->
        rt.arena <- Log_arena.attach p.mt_heap ~tail:tails.(i);
        Tlb.flush rt.tlb;
        rt.closed_epochs <- [];
        let head =
          Pmem.load_int p.mt_pm (Heap.root_slot p.mt_heap rt.head_slot)
        in
        rt.cur <- { eid = 1; boundary = head; pages = []; bytes = 0 };
        Epoch_coord.register_start p.mt_coord ~thread:i ~eid:1
          ~start_ts:(Tsc.peek p.mt_tsc);
        List.iter
          (fun pg ->
            ignore (claim rt pg);
            rt.cur.pages <- pg :: rt.cur.pages)
          (List.sort_uniq compare pages_per_thread.(i));
        rt.frees <- [];
        Write_set.clear rt.ws;
        rt.in_tx <- false)
      p.runtimes
end
