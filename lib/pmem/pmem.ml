exception Crash

type op =
  | Load of Addr.t
  | Store of Addr.t * int
  | Clwb of Addr.t
  | Sfence
  | Nt_store of Addr.t * int (* address, bytes *)
  | Load_bytes of Addr.t * int (* address, bytes *)
  | Store_bytes of Addr.t * int (* address, bytes *)

let pp_op ppf = function
  | Load a -> Fmt.pf ppf "load   %#x" a
  | Store (a, v) -> Fmt.pf ppf "store  %#x <- %d" a v
  | Clwb a -> Fmt.pf ppf "clwb   %#x" a
  | Sfence -> Fmt.pf ppf "sfence"
  | Nt_store (a, n) -> Fmt.pf ppf "ntstore %#x (%d B)" a n
  | Load_bytes (a, n) -> Fmt.pf ppf "loadb  %#x (%d B)" a n
  | Store_bytes (a, n) -> Fmt.pf ppf "storeb %#x (%d B)" a n

type media =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The cache is a flat, fully associative pool of [cache_capacity_lines + 1]
   line slots (the +1 is headroom for the insert-then-evict order of the
   miss path).  [slot_of] maps every line index of the image to its slot,
   or -1 — a direct array lookup, no hashing.  Slot payloads live side by
   side in one [slot_data] buffer; dirtiness is one byte per slot.  FIFO
   eviction order is an intrusive doubly-linked list threaded through
   [fifo_next]/[fifo_prev] by slot id, so invalidation (clflushopt,
   nt-store merge) unlinks the victim and can never leave a stale queue
   entry behind.  Free slots are a stack.  Nothing on the hit path
   allocates. *)
type t = {
  cfg : Config.t;
  media : media; (* shared across views; off-heap, domain-safe *)
  slot_of : int array; (* line index -> slot, -1 when uncached *)
  slot_line : int array; (* slot -> line index, -1 when free *)
  slot_dirty : Bytes.t; (* slot -> 0/1 *)
  slot_data : Bytes.t; (* slot s owns bytes [s*64, s*64+64) *)
  fifo_next : int array;
  fifo_prev : int array;
  mutable fifo_head : int; (* oldest resident slot, -1 when empty *)
  mutable fifo_tail : int; (* newest resident slot *)
  free_slots : int array; (* stack of free slot ids *)
  mutable free_top : int;
  mutable occupied : int;
  nt_scratch : Bytes.t; (* one-line merge buffer for uncached nt-stores *)
  stats : Stats.t;
  rng : Random.State.t;
  (* WPQ: completion times of accepted persists.  Completions are
     strictly increasing (each starts no earlier than the previous one
     finished), so a circular buffer ordered head=oldest suffices and
     full-queue stalls and fences are O(1). *)
  wpq : float array;
  mutable wpq_head : int;
  mutable wpq_len : int;
  mutable last_completion : float; (* WPQ is a serial server *)
  mutable last_persist_line : int; (* for the sequential-write fast path *)
  mutable last_read_line : int; (* for the sequential-read fast path *)
  mutable fuse : int option;
  mutable events : int; (* monotonic count of fuse-visible memory events *)
  mutable metered : bool;
  mutable crashed : bool;
  (* optional operation trace: a bounded ring of the most recent memory
     events, for post-mortem debugging of crash-consistency failures *)
  mutable trace : op array option;
  mutable trace_pos : int;
}

(* A per-domain view of the same media: shares the [media] image (and
   the immutable config) but owns a private cache, write-pending queue,
   stats clock and fuse.  This is the simulator's model of one core's
   cache hierarchy over shared PM.  Views are NOT coherent — the model
   writes media back whole lines — so callers must partition the image:
   a line written through one view must never be touched through
   another until the owning view has been detached. *)
let make_view cfg media seed =
  if cfg.Config.cache_capacity_lines < 1 then
    invalid_arg "Pmem: cache_capacity_lines < 1";
  let mem_lines =
    (cfg.Config.mem_size + Addr.line_size - 1) / Addr.line_size
  in
  let nslots = cfg.Config.cache_capacity_lines + 1 in
  {
    cfg;
    media;
    slot_of = Array.make mem_lines (-1);
    slot_line = Array.make nslots (-1);
    slot_dirty = Bytes.make nslots '\000';
    slot_data = Bytes.create (nslots * Addr.line_size);
    fifo_next = Array.make nslots (-1);
    fifo_prev = Array.make nslots (-1);
    fifo_head = -1;
    fifo_tail = -1;
    free_slots = Array.init nslots (fun i -> nslots - 1 - i);
    free_top = nslots;
    occupied = 0;
    nt_scratch = Bytes.create Addr.line_size;
    stats = Stats.create ();
    rng = Random.State.make [| seed; 0x5ec; 0x9a7e |];
    wpq = Array.make (max 1 cfg.Config.wpq_lines) 0.0;
    wpq_head = 0;
    wpq_len = 0;
    last_completion = 0.0;
    last_persist_line = -10;
    last_read_line = -10;
    fuse = None;
    events = 0;
    metered = true;
    crashed = false;
    trace = None;
    trace_pos = 0;
  }

let create ?(seed = 42) cfg =
  let media =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout
      cfg.Config.mem_size
  in
  Bigarray.Array1.fill media '\000';
  make_view cfg media seed

let fork_view ?(seed = 43) t = make_view t.cfg t.media seed

let config t = t.cfg
let stats t = t.stats
let mem_size t = t.cfg.Config.mem_size
let crashed_once t = t.crashed
let set_fuse t n = t.fuse <- n
let fuse t = t.fuse
let events t = t.events

let set_trace t n =
  if n <= 0 then begin
    t.trace <- None;
    t.trace_pos <- 0
  end
  else begin
    t.trace <- Some (Array.make n Sfence);
    t.trace_pos <- 0
  end

(* Callers test [tracing] before building the op, so an untraced device
   allocates no [op] block per access. *)
let tracing t = match t.trace with None -> false | Some _ -> true

let record_op t op =
  match t.trace with
  | None -> ()
  | Some ring ->
      ring.(t.trace_pos mod Array.length ring) <- op;
      t.trace_pos <- t.trace_pos + 1

let recent_ops t =
  match t.trace with
  | None -> []
  | Some ring ->
      let n = Array.length ring in
      let count = min n t.trace_pos in
      List.init count (fun i -> ring.((t.trace_pos - count + i) mod n))

let burn_fuse t =
  t.events <- t.events + 1;
  match t.fuse with
  | None -> ()
  | Some n -> if n <= 1 then raise Crash else t.fuse <- Some (n - 1)

let charge t ns = if t.metered then t.stats.Stats.ns <- t.stats.Stats.ns +. ns
let charge_ns = charge

let charge_bg_ns t ns =
  if t.metered then t.stats.Stats.bg_ns <- t.stats.Stats.bg_ns +. ns

let count f t = if t.metered then f t.stats

(* {2 Raw media access} *)

let media_read_line t li dst dst_off =
  let base = li * Addr.line_size in
  for i = 0 to Addr.line_size - 1 do
    Bytes.unsafe_set dst (dst_off + i)
      (Bigarray.Array1.unsafe_get t.media (base + i))
  done

(* Unmetered byte copy into the media image (detach write-back, crash
   word drains). *)
let media_blit_out t src src_off media_off len =
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set t.media (media_off + i)
      (Bytes.unsafe_get src (src_off + i))
  done

(* Write one line of content to the media image, with traffic accounting
   and sequential-stream detection. *)
let media_write_line t li (src : Bytes.t) src_off =
  media_blit_out t src src_off (li * Addr.line_size) Addr.line_size;
  if t.metered then begin
    t.stats.Stats.pm_write_lines <- t.stats.Stats.pm_write_lines + 1;
    Specpmt_obs.Phase.on_pm_write_line ();
    if li = t.last_persist_line + 1 || li = t.last_persist_line then
      t.stats.Stats.pm_write_lines_seq <- t.stats.Stats.pm_write_lines_seq + 1;
    (* unmetered (background-core) writes must not perturb the foreground
       stream-locality tracking either *)
    t.last_persist_line <- li
  end

let line_write_cost t li =
  let seq = li = t.last_persist_line + 1 || li = t.last_persist_line in
  if seq then t.cfg.Config.pm_seq_write_ns else t.cfg.Config.pm_write_ns

(* {2 Slot pool and FIFO} *)

let is_dirty t s = Bytes.unsafe_get t.slot_dirty s <> '\000'
let set_dirty t s = Bytes.unsafe_set t.slot_dirty s '\001'

let fifo_push t s =
  t.fifo_next.(s) <- -1;
  t.fifo_prev.(s) <- t.fifo_tail;
  if t.fifo_tail >= 0 then t.fifo_next.(t.fifo_tail) <- s
  else t.fifo_head <- s;
  t.fifo_tail <- s

let fifo_unlink t s =
  let p = t.fifo_prev.(s) and n = t.fifo_next.(s) in
  if p >= 0 then t.fifo_next.(p) <- n else t.fifo_head <- n;
  if n >= 0 then t.fifo_prev.(n) <- p else t.fifo_tail <- p;
  t.fifo_prev.(s) <- -1;
  t.fifo_next.(s) <- -1

let alloc_slot t =
  t.free_top <- t.free_top - 1;
  t.free_slots.(t.free_top)

(* Return an unlinked slot to the free pool (the caller has already
   removed it from the FIFO). *)
let release_slot t s =
  t.slot_of.(t.slot_line.(s)) <- -1;
  t.slot_line.(s) <- -1;
  Bytes.unsafe_set t.slot_dirty s '\000';
  t.free_slots.(t.free_top) <- s;
  t.free_top <- t.free_top + 1;
  t.occupied <- t.occupied - 1

let invalidate_slot t s =
  fifo_unlink t s;
  release_slot t s

let evict_capacity t =
  let cap = t.cfg.Config.cache_capacity_lines in
  while t.occupied > cap do
    let s = t.fifo_head in
    fifo_unlink t s;
    let li = t.slot_line.(s) in
    if is_dirty t s then begin
      count (fun st -> st.Stats.evictions <- st.Stats.evictions + 1) t;
      (* the cost must be read off before the write-back advances
         [last_persist_line] to the victim, otherwise every capacity
         eviction bills the sequential rate regardless of locality *)
      let cost = line_write_cost t li in
      media_write_line t li t.slot_data (s * Addr.line_size);
      charge_bg_ns t cost
    end;
    release_slot t s
  done

(* Fetch a line into the cache (clean copy from media) if absent;
   returns the slot id. *)
let get_slot t li ~for_load =
  let s = t.slot_of.(li) in
  if s >= 0 then begin
    charge t t.cfg.Config.l1_hit_ns;
    s
  end
  else begin
    if for_load then begin
      count (fun st -> st.Stats.pm_read_lines <- st.Stats.pm_read_lines + 1) t;
      if t.metered then Specpmt_obs.Phase.on_pm_read_line ();
      (* a miss continuing the previous miss's stream is bandwidth-bound:
         prefetch hides the media latency (the read-side twin of the
         sequential-write fast path) *)
      let seq = li = t.last_read_line + 1 || li = t.last_read_line in
      if seq then begin
        count
          (fun st ->
            st.Stats.pm_read_lines_seq <- st.Stats.pm_read_lines_seq + 1)
          t;
        charge t t.cfg.Config.pm_seq_read_ns
      end
      else charge t t.cfg.Config.pm_read_ns;
      if t.metered then t.last_read_line <- li
    end
    else charge t t.cfg.Config.l1_hit_ns;
    let s = alloc_slot t in
    t.slot_of.(li) <- s;
    t.slot_line.(s) <- li;
    Bytes.unsafe_set t.slot_dirty s '\000';
    media_read_line t li t.slot_data (s * Addr.line_size);
    fifo_push t s;
    t.occupied <- t.occupied + 1;
    evict_capacity t;
    s
  end

(* Write every dirty cached line back to media and empty the cache —
   the handoff fence when line ownership moves between views (e.g. a
   worker domain joining, or a parent forking views over lines it
   formatted).  A simulation-boundary operation: no stats, no WPQ, no
   fuse events. *)
let clear_cache t =
  let s = ref t.fifo_head in
  while !s >= 0 do
    let next = t.fifo_next.(!s) in
    t.fifo_prev.(!s) <- -1;
    t.fifo_next.(!s) <- -1;
    release_slot t !s;
    s := next
  done;
  t.fifo_head <- -1;
  t.fifo_tail <- -1;
  t.wpq_head <- 0;
  t.wpq_len <- 0

let detach_cache t =
  let s = ref t.fifo_head in
  while !s >= 0 do
    if is_dirty t !s then
      media_blit_out t t.slot_data (!s * Addr.line_size)
        (t.slot_line.(!s) * Addr.line_size)
        Addr.line_size;
    s := t.fifo_next.(!s)
  done;
  clear_cache t

(* Drop the cache without any write-back: the crash counterpart of
   {!detach_cache} — everything this view had not yet persisted is
   lost, exactly as a power failure would lose one core's caches. *)
let discard_cache t = clear_cache t

(* Accept one line into the write-pending queue: may stall the foreground
   if the queue is full; the drain itself is asynchronous and paid by the
   next fence. *)
let wpq_accept t li =
  (* background-core persists do not occupy the foreground's
     write-pending queue in the model *)
  if t.metered then begin
    let cfg = t.cfg in
    let wcap = Array.length t.wpq in
    if t.wpq_len >= cfg.Config.wpq_lines then begin
      (* stall until the oldest accepted persist drains, then retire
         every entry that has completed by the stalled clock *)
      let oldest = t.wpq.(t.wpq_head) in
      if t.stats.Stats.ns < oldest then charge t (oldest -. t.stats.Stats.ns);
      while t.wpq_len > 0 && t.wpq.(t.wpq_head) <= t.stats.Stats.ns do
        t.wpq_head <- (t.wpq_head + 1) mod wcap;
        t.wpq_len <- t.wpq_len - 1
      done
    end;
    charge t cfg.Config.wpq_accept_ns;
    let start = Float.max t.stats.Stats.ns t.last_completion in
    let completion = start +. line_write_cost t li in
    t.last_completion <- completion;
    t.wpq.((t.wpq_head + t.wpq_len) mod wcap) <- completion;
    t.wpq_len <- t.wpq_len + 1
  end

let check_bounds t addr len =
  if addr < 0 || addr + len > t.cfg.Config.mem_size then
    Fmt.invalid_arg "Pmem: address out of bounds: %d (+%d)" addr len

let load_int t addr =
  assert (Addr.is_word_aligned addr);
  check_bounds t addr 8;
  burn_fuse t;
  if tracing t then record_op t (Load addr);
  count (fun s -> s.Stats.loads <- s.Stats.loads + 1) t;
  let s = get_slot t (Addr.line_index addr) ~for_load:true in
  Int64.to_int
    (Bytes.get_int64_le t.slot_data
       ((s * Addr.line_size) + Addr.offset_in_line addr))

let store_int t addr v =
  assert (Addr.is_word_aligned addr);
  check_bounds t addr 8;
  burn_fuse t;
  if tracing t then record_op t (Store (addr, v));
  count (fun s -> s.Stats.stores <- s.Stats.stores + 1) t;
  let s = get_slot t (Addr.line_index addr) ~for_load:false in
  Bytes.set_int64_le t.slot_data
    ((s * Addr.line_size) + Addr.offset_in_line addr)
    (Int64.of_int v);
  set_dirty t s

let load_bytes t addr len =
  check_bounds t addr len;
  burn_fuse t;
  if tracing t then record_op t (Load_bytes (addr, len));
  count (fun s -> s.Stats.loads <- s.Stats.loads + 1) t;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let li = Addr.line_index a in
    let off = Addr.offset_in_line a in
    let n = min (Addr.line_size - off) (len - !pos) in
    let s = get_slot t li ~for_load:true in
    Bytes.blit t.slot_data ((s * Addr.line_size) + off) out !pos n;
    pos := !pos + n
  done;
  out

let store_bytes t addr b =
  let len = Bytes.length b in
  if len > 0 then begin
    check_bounds t addr len;
    burn_fuse t;
    if tracing t then record_op t (Store_bytes (addr, len));
    count (fun s -> s.Stats.stores <- s.Stats.stores + 1) t;
    let pos = ref 0 in
    while !pos < len do
      let a = addr + !pos in
      let li = Addr.line_index a in
      let off = Addr.offset_in_line a in
      let n = min (Addr.line_size - off) (len - !pos) in
      let s = get_slot t li ~for_load:false in
      Bytes.blit b !pos t.slot_data ((s * Addr.line_size) + off) n;
      set_dirty t s;
      pos := !pos + n
    done
  end

let clwb t addr =
  check_bounds t addr 1;
  burn_fuse t;
  if tracing t then record_op t (Clwb addr);
  count (fun s -> s.Stats.clwbs <- s.Stats.clwbs + 1) t;
  if t.metered then Specpmt_obs.Phase.on_clwb ();
  charge t t.cfg.Config.clwb_issue_ns;
  if not t.cfg.Config.eadr then begin
    let li = Addr.line_index addr in
    let s = t.slot_of.(li) in
    if s >= 0 && is_dirty t s then begin
      (* accepted by the WPQ: persistent now, drain time paid at the
         fence *)
      wpq_accept t li;
      media_write_line t li t.slot_data (s * Addr.line_size);
      Bytes.unsafe_set t.slot_dirty s '\000'
    end
  end

(* clflushopt: like clwb but also invalidates the cached copy — the next
   access misses.  Same persistence semantics (WPQ acceptance).  The
   victim is unlinked from the eviction FIFO, not just unmapped. *)
let clflushopt t addr =
  clwb t addr;
  let s = t.slot_of.(Addr.line_index addr) in
  if s >= 0 then invalidate_slot t s

let sfence t =
  burn_fuse t;
  if tracing t then record_op t Sfence;
  count (fun s -> s.Stats.fences <- s.Stats.fences + 1) t;
  if t.metered then Specpmt_obs.Phase.on_fence ();
  let latest =
    if t.wpq_len = 0 then t.stats.Stats.ns
    else
      (* completions are monotone: the tail entry is the latest *)
      Float.max t.stats.Stats.ns
        t.wpq.((t.wpq_head + t.wpq_len - 1) mod Array.length t.wpq)
  in
  if t.metered then t.stats.Stats.ns <- latest +. t.cfg.Config.fence_ns;
  t.wpq_head <- 0;
  t.wpq_len <- 0

let nt_store_bytes t addr b =
  (* under eADR a cached store is already durable; the non-temporal hint
     buys nothing and the write stays in the (persistent) cache *)
  if t.cfg.Config.eadr then store_bytes t addr b
  else
    let len = Bytes.length b in
    if len > 0 then begin
      check_bounds t addr len;
      burn_fuse t;
      if tracing t then record_op t (Nt_store (addr, len));
      count (fun s -> s.Stats.nt_stores <- s.Stats.nt_stores + 1) t;
      if t.metered then Specpmt_obs.Phase.on_nt_store ();
      let pos = ref 0 in
      while !pos < len do
        let a = addr + !pos in
        let li = Addr.line_index a in
        let off = Addr.offset_in_line a in
        let n = min (Addr.line_size - off) (len - !pos) in
        (* write-combining through the WPQ; cached copies are invalidated,
           merging with any cached dirty content first so that unrelated
           bytes of the line are not lost *)
        let s = t.slot_of.(li) in
        if s >= 0 then begin
          Bytes.blit b !pos t.slot_data ((s * Addr.line_size) + off) n;
          wpq_accept t li;
          media_write_line t li t.slot_data (s * Addr.line_size);
          invalidate_slot t s
        end
        else begin
          media_read_line t li t.nt_scratch 0;
          Bytes.blit b !pos t.nt_scratch off n;
          wpq_accept t li;
          media_write_line t li t.nt_scratch 0
        end;
        pos := !pos + n
      done
    end

let flush_range t addr len =
  if len > 0 then begin
    let first = Addr.line_index addr in
    let last = Addr.line_index (addr + len - 1) in
    for li = first to last do
      clwb t (li * Addr.line_size)
    done
  end

let dirty_lines t =
  let acc = ref [] in
  let s = ref t.fifo_head in
  while !s >= 0 do
    if is_dirty t !s then acc := t.slot_line.(!s) :: !acc;
    s := t.fifo_next.(!s)
  done;
  List.sort compare !acc

let dirty_words t =
  List.concat_map
    (fun li ->
      List.init (Addr.line_size / 8) (fun w ->
          (li * Addr.line_size) + (w * 8)))
    (dirty_lines t)

(* Oracle-driven crash: [persist] decides, per dirty 8-byte word in
   ascending address order, whether the in-flight store reaches the media.
   Under eADR the caches sit inside the persistence domain, so everything
   drains regardless of the oracle. *)
let crash_with t ~persist =
  t.crashed <- true;
  List.iter
    (fun li ->
      let s = t.slot_of.(li) in
      if s >= 0 then
        (* each 8-byte word may have drained independently (stores are
           word-atomic with respect to persistence) *)
        for w = 0 to (Addr.line_size / 8) - 1 do
          let addr = (li * Addr.line_size) + (w * 8) in
          if t.cfg.Config.eadr || persist addr then
            media_blit_out t t.slot_data ((s * Addr.line_size) + (w * 8))
              addr 8
        done)
    (dirty_lines t);
  clear_cache t;
  t.fuse <- None

let crash t =
  t.crashed <- true;
  (* under eADR the caches are inside the persistence domain: every dirty
     word drains, deterministically *)
  let p =
    if t.cfg.Config.eadr then 1.0 else t.cfg.Config.crash_word_persist_prob
  in
  List.iter
    (fun li ->
      let s = t.slot_of.(li) in
      if s >= 0 then
        for w = 0 to (Addr.line_size / 8) - 1 do
          if Random.State.float t.rng 1.0 < p then
            media_blit_out t t.slot_data ((s * Addr.line_size) + (w * 8))
              ((li * Addr.line_size) + (w * 8))
              8
        done)
    (dirty_lines t);
  clear_cache t;
  t.fuse <- None

let with_unmetered t f =
  let saved = t.metered in
  t.metered <- false;
  Fun.protect ~finally:(fun () -> t.metered <- saved) f

let peek_media_int t addr =
  assert (Addr.is_word_aligned addr);
  check_bounds t addr 8;
  let g i = Char.code (Bigarray.Array1.unsafe_get t.media (addr + i)) in
  g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24) lor (g 4 lsl 32)
  lor (g 5 lsl 40)
  lor (g 6 lsl 48)
  lor (g 7 lsl 56)

let peek_volatile_int t addr =
  assert (Addr.is_word_aligned addr);
  check_bounds t addr 8;
  let s = t.slot_of.(Addr.line_index addr) in
  if s >= 0 then
    Int64.to_int
      (Bytes.get_int64_le t.slot_data
         ((s * Addr.line_size) + Addr.offset_in_line addr))
  else peek_media_int t addr
