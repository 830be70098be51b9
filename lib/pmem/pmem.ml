exception Crash

type media =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* native-endian 64-bit accesses, used to move raw line content a word
   at a time (both sides native, so the bytes land unchanged) *)
external media_get64 : media -> int -> int64 = "%caml_bigstring_get64u"
external media_set64 : media -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

(* Cache lines are 64 bytes ([Addr.line_size]).  The access paths do
   their own line arithmetic with these constants: the dev build
   compiles each module [-opaque], so a call to an [Addr] helper is an
   indirect call through its module block on every access, and
   [Addr.line_size] a load and a multiply. *)
let line_shift = 6
let line_size = 1 lsl line_shift
let line_mask = line_size - 1
let () = assert (Addr.line_size = line_size)

(* A cached line's bytes are little-endian, the encoding [load_bytes]
   hands out; [%big_endian] is a compile-time constant, so on a
   little-endian host these are one unchecked 64-bit access. *)
let[@inline] get_le b off =
  let v = bytes_get64 b off in
  if big_endian () then swap64 v else v

let[@inline] set_le b off v =
  bytes_set64 b off (if big_endian () then swap64 v else v)

(* The cache is a flat, fully associative pool of [cache_capacity_lines + 1]
   line slots (the +1 is headroom for the insert-then-evict order of the
   miss path).  [slot_of] maps every line index of the image to its slot,
   or -1 — a direct array lookup, no hashing.  Slot payloads live side by
   side in one [slot_data] buffer; dirtiness is one byte per slot.  FIFO
   eviction order is an intrusive doubly-linked list threaded through
   [fifo_next]/[fifo_prev] by slot id, so invalidation (clflushopt,
   nt-store merge) unlinks the victim and can never leave a stale queue
   entry behind.  Free slots are a stack.  The clocks live in the flat
   float array [clock] and the fuse is a plain int, so no access, flush
   or fence allocates. *)
type t = {
  cfg : Config.t;
  media : media; (* shared across views; off-heap, domain-safe *)
  written : media; (* line index -> 0 while the line reads as zero; shared *)
  mem : int; (* [cfg.mem_size] *)
  last_word : int; (* [mem - 8]: the highest word address *)
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
      (* counters; its [ns] and [bg_ns] are copied in from [clock] when
         {!stats} hands the record out *)
  clock : float array;
      (* [fg]: foreground ns, [bg]: background ns, [wpq_last]: completion
         time of the last accepted persist (the WPQ is a serial server).
         Unboxed, so advancing a clock allocates nothing, unlike a float
         field of the mixed [Stats.t] *)
  rng : Random.State.t;
  (* WPQ: completion times of accepted persists.  Completions are
     strictly increasing (each starts no earlier than the previous one
     finished), so a circular buffer ordered head=oldest suffices and
     full-queue stalls and fences are O(1). *)
  wpq : float array;
  mutable wpq_head : int;
  mutable wpq_len : int;
  mutable last_persist_line : int; (* for the sequential-write fast path *)
  mutable last_read_line : int; (* for the sequential-read fast path *)
  mutable fuse : int;
      (* events left until the crash, counting the crashing one; 0 when
         disarmed *)
  mutable events : int; (* monotonic count of fuse-visible memory events *)
  mutable metered : bool;
}

(* slots of [clock] *)
let fg = 0
let bg = 1
let wpq_last = 2

(* {2 Images}

   A device's image is its media and a written-line table, one byte per
   line, both off the OCaml heap.  A line whose byte is 0 reads as zero
   whatever its media bytes hold, so the media is never filled: a
   whole-line write-back sets the byte, and a word drained alone at a
   crash zeroes the rest of its line first.

   The first write to each page of a fresh media Bigarray faults the page
   in, inside whatever phase makes it.  So the image of a dead device is
   kept as a spare, at most one per size: a finaliser on the media offers
   it once every view is unreachable, and [create] takes it back and
   clears its table.  The spares are one [Atomic] list, since a device may
   be created on any domain and a finaliser may run inside [take]. *)

(* an image: the media and its table *)
let spares : (media * media) list Atomic.t = Atomic.make []
let size_of (media, _) = Bigarray.Array1.dim media

let rec offer img =
  let l = Atomic.get spares in
  if
    (not (List.exists (fun s -> size_of s = size_of img) l))
    && not (Atomic.compare_and_set spares l (img :: l))
  then offer img

let rec take size =
  let l = Atomic.get spares in
  match List.find_opt (fun s -> size_of s = size) l with
  | None -> None
  | Some img as spare ->
      if Atomic.compare_and_set spares l (List.filter (( != ) img) l) then spare
      else take size

let image size =
  let media, written =
    match take size with
    | Some img -> img
    | None ->
        let bytes n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
        (bytes size, bytes (size / line_size))
  in
  Bigarray.Array1.fill written '\000';
  (* the finaliser holds the table only: holding the media would keep it
     reachable for ever.  Only the main domain registers one: OCaml
     5.1's collector could spin for ever over the finalisers of a
     domain that had ended (a hang in ~1 of 65 [explore --jobs 4] runs) *)
  if Domain.is_main_domain () then
    Gc.finalise (fun media -> offer (media, written)) media;
  (media, written)

(* A per-domain view of the same media: shares the [media] image (and
   the immutable config) but owns a private cache, write-pending queue,
   stats clock and fuse.  This is the simulator's model of one core's
   cache hierarchy over shared PM.  Views are NOT coherent — the model
   writes media back whole lines — so callers must partition the image:
   a line written through one view must never be touched through
   another until the owning view has been detached. *)
let make_view cfg (media, written) seed =
  let mem_lines = cfg.Config.mem_size / line_size in
  let nslots = cfg.Config.cache_capacity_lines + 1 in
  {
    cfg;
    media;
    written;
    mem = cfg.Config.mem_size;
    last_word = cfg.Config.mem_size - 8;
    slot_of = Array.make mem_lines (-1);
    slot_line = Array.make nslots (-1);
    slot_dirty = Bytes.make nslots '\000';
    slot_data = Bytes.create (nslots * line_size);
    fifo_next = Array.make nslots (-1);
    fifo_prev = Array.make nslots (-1);
    fifo_head = -1;
    fifo_tail = -1;
    free_slots = Array.init nslots (fun i -> nslots - 1 - i);
    free_top = nslots;
    occupied = 0;
    nt_scratch = Bytes.create line_size;
    stats = Stats.create ();
    clock = Array.make 3 0.0;
    rng = Random.State.make [| seed; 0x5ec; 0x9a7e |];
    wpq = Array.make (max 1 cfg.Config.wpq_lines) 0.0;
    wpq_head = 0;
    wpq_len = 0;
    last_persist_line = -10;
    last_read_line = -10;
    fuse = 0;
    events = 0;
    metered = true;
  }

let create ?(seed = 42) cfg =
  if cfg.Config.cache_capacity_lines < 1 then
    invalid_arg "Pmem: cache_capacity_lines < 1";
  (* whole lines only: line copies are unchecked word accesses *)
  if cfg.Config.mem_size mod line_size <> 0 then
    invalid_arg "Pmem: mem_size is not a whole number of lines";
  make_view cfg (image cfg.Config.mem_size) seed

let fork_view ?(seed = 43) t = make_view t.cfg (t.media, t.written) seed

let config t = t.cfg

(* a clock that has not moved since the last call is not written again:
   each write boxes a float *)
let stats t =
  let s = t.stats in
  if s.Stats.ns <> t.clock.(fg) then s.Stats.ns <- t.clock.(fg);
  if s.Stats.bg_ns <> t.clock.(bg) then s.Stats.bg_ns <- t.clock.(bg);
  s

let mem_size t = t.mem

(* every armed count at or below 1 crashes on the next event *)
let set_fuse t = function None -> t.fuse <- 0 | Some n -> t.fuse <- max n 1
let events t = t.events

(* {2 The access prologue}

   Every entry point starts the same way, and in this order: one test of
   the address, then one fuse event, then (when metered) its counter and
   clock.  A rejected address therefore burns no event, and a crashing
   event has counted nothing.  The tests and the fuse's countdown are
   inlined; what they rarely lead to (raising, counting the fuse down)
   is out of line. *)

let[@inline never] out_of_bounds addr len =
  Fmt.invalid_arg "Pmem: address out of bounds: %d (+%d)" addr len

let[@inline never] bad_word t addr =
  if addr >= 0 && addr <= t.last_word then
    Fmt.invalid_arg "Pmem: misaligned word address: %d" addr
  else out_of_bounds addr 8

(* sign bit: below 0 or past [last_word]; low bits: misaligned *)
let word_reject = min_int lor 7

(* A word access needs [0 <= addr <= last_word] and [addr] a multiple of
   8.  [last_word - addr] is negative past the end, and a multiple of 8
   exactly when [addr] is ([last_word] is one), so the two tests fold
   into one branch.  The hit paths' unchecked 64-bit accesses rely on
   it, so it is a test, not an [assert] that [-noassert] would drop. *)
let[@inline] check_word t addr =
  if (addr lor (t.last_word - addr)) land word_reject <> 0 then
    bad_word t addr

(* [0 <= addr] and [addr + len <= mem], [len >= 0], without the
   overflow of [addr + len] *)
let[@inline] check_range t addr len =
  if addr lor len lor (t.mem - len - addr) < 0 then out_of_bounds addr len

let[@inline never] fuse_tick t =
  if t.fuse = 1 then raise Crash else t.fuse <- t.fuse - 1

let[@inline] event t =
  t.events <- t.events + 1;
  if t.fuse > 0 then fuse_tick t

let[@inline] advance t ns =
  Array.unsafe_set t.clock fg (Array.unsafe_get t.clock fg +. ns)

let charge t ns = if t.metered then advance t ns
let charge_ns = charge
let charge_bg_ns t ns = if t.metered then t.clock.(bg) <- t.clock.(bg) +. ns

(* {2 Raw media access} *)

let line_words = line_size / 8

let[@inline] written t li = Bigarray.Array1.unsafe_get t.written li <> '\000'

(* Callers pass offsets of whole lines or words inside [media] and the
   slot payloads, so the unchecked accesses stay in bounds.  The two line
   copies are unrolled: as loops they took a miss ~20% longer, and a
   dirty eviction ~10%. *)
let media_read_line t li dst o =
  if written t li then begin
    let m = t.media and b = li lsl line_shift in
    bytes_set64 dst o (media_get64 m b);
    bytes_set64 dst (o + 8) (media_get64 m (b + 8));
    bytes_set64 dst (o + 16) (media_get64 m (b + 16));
    bytes_set64 dst (o + 24) (media_get64 m (b + 24));
    bytes_set64 dst (o + 32) (media_get64 m (b + 32));
    bytes_set64 dst (o + 40) (media_get64 m (b + 40));
    bytes_set64 dst (o + 48) (media_get64 m (b + 48));
    bytes_set64 dst (o + 56) (media_get64 m (b + 56))
  end
  else Bytes.unsafe_fill dst o line_size '\000'

(* Unmetered copy of a whole line into the media image (line
   write-backs), which marks it written. *)
let media_blit_out t src o li =
  let m = t.media and b = li lsl line_shift in
  media_set64 m b (bytes_get64 src o);
  media_set64 m (b + 8) (bytes_get64 src (o + 8));
  media_set64 m (b + 16) (bytes_get64 src (o + 16));
  media_set64 m (b + 24) (bytes_get64 src (o + 24));
  media_set64 m (b + 32) (bytes_get64 src (o + 32));
  media_set64 m (b + 40) (bytes_get64 src (o + 40));
  media_set64 m (b + 48) (bytes_get64 src (o + 48));
  media_set64 m (b + 56) (bytes_get64 src (o + 56));
  Bigarray.Array1.unsafe_set t.written li '\001'

let zero_line = Bytes.make line_size '\000'

(* Unmetered copy of one word into the media image (a crash drain); a
   line not yet written is zeroed first, so its other words still read
   as zero. *)
let media_drain_word t src src_off addr =
  let li = addr lsr line_shift in
  if not (written t li) then media_blit_out t zero_line 0 li;
  media_set64 t.media addr (bytes_get64 src src_off)

(* Write one line of content to the media image, with traffic accounting
   and sequential-stream detection. *)
let media_write_line t li (src : Bytes.t) src_off =
  media_blit_out t src src_off li;
  if t.metered then begin
    t.stats.Stats.pm_write_lines <- t.stats.Stats.pm_write_lines + 1;
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
      if t.metered then t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
      (* the cost must be read off before the write-back advances
         [last_persist_line] to the victim, otherwise every capacity
         eviction bills the sequential rate regardless of locality *)
      let cost = line_write_cost t li in
      media_write_line t li t.slot_data (s lsl line_shift);
      charge_bg_ns t cost
    end;
    release_slot t s
  done

(* The miss path: fetch absent line [li] into the cache (a clean copy
   from media), evicting past capacity; returns its slot. *)
let[@inline never] fill t li ~for_load =
  if for_load then begin
    if t.metered then
      t.stats.Stats.pm_read_lines <- t.stats.Stats.pm_read_lines + 1;
    (* a miss continuing the previous miss's stream is bandwidth-bound:
       prefetch hides the media latency (the read-side twin of the
       sequential-write fast path) *)
    let seq = li = t.last_read_line + 1 || li = t.last_read_line in
    if seq then begin
      if t.metered then
        t.stats.Stats.pm_read_lines_seq <- t.stats.Stats.pm_read_lines_seq + 1;
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
  media_read_line t li t.slot_data (s lsl line_shift);
  fifo_push t s;
  t.occupied <- t.occupied + 1;
  evict_capacity t;
  s

(* Line [li]'s slot, with the access charge; a miss fills it.  [li] is
   in bounds: every caller has passed the prologue. *)
let[@inline] slot t li ~for_load =
  let s = Array.unsafe_get t.slot_of li in
  if s >= 0 then begin
    charge t t.cfg.Config.l1_hit_ns;
    s
  end
  else fill t li ~for_load

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
      media_blit_out t t.slot_data (!s lsl line_shift) t.slot_line.(!s);
    s := t.fifo_next.(!s)
  done;
  clear_cache t

(* Drop the cache without any write-back: the crash counterpart of
   {!detach_cache} — everything this view had not yet persisted is
   lost, exactly as a power failure would lose one core's caches. *)
let discard_cache t = clear_cache t

(* Accept one line into the write-pending queue: may stall the foreground
   if the queue is full; the drain itself is asynchronous and paid by the
   next fence.  The ring holds at most [Array.length wpq] entries and
   [wpq_head] stays below that, so an index past the end wraps with one
   subtraction. *)
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
      if t.clock.(fg) < oldest then
        t.clock.(fg) <- t.clock.(fg) +. (oldest -. t.clock.(fg));
      while t.wpq_len > 0 && t.wpq.(t.wpq_head) <= t.clock.(fg) do
        let h = t.wpq_head + 1 in
        t.wpq_head <- (if h = wcap then 0 else h);
        t.wpq_len <- t.wpq_len - 1
      done
    end;
    advance t cfg.Config.wpq_accept_ns;
    let start = Float.max t.clock.(fg) t.clock.(wpq_last) in
    let completion = start +. line_write_cost t li in
    t.clock.(wpq_last) <- completion;
    let i = t.wpq_head + t.wpq_len in
    t.wpq.(if i >= wcap then i - wcap else i) <- completion;
    t.wpq_len <- t.wpq_len + 1
  end

(* The word paths: the prologue, then on a hit one [slot_of] lookup,
   the counter and the hit charge under one [metered] test, and one
   64-bit access at the slot's offset.  A miss goes out of line to the
   same accounting [slot] gives the byte paths. *)

let[@inline never] load_miss t addr =
  if t.metered then t.stats.Stats.loads <- t.stats.Stats.loads + 1;
  fill t (addr lsr line_shift) ~for_load:true

let load_int t addr =
  check_word t addr;
  event t;
  let s = Array.unsafe_get t.slot_of (addr lsr line_shift) in
  let s =
    if s >= 0 then begin
      if t.metered then begin
        t.stats.Stats.loads <- t.stats.Stats.loads + 1;
        advance t t.cfg.Config.l1_hit_ns
      end;
      s
    end
    else load_miss t addr
  in
  Int64.to_int
    (get_le t.slot_data ((s lsl line_shift) lor (addr land line_mask)))

let[@inline never] store_miss t addr =
  if t.metered then t.stats.Stats.stores <- t.stats.Stats.stores + 1;
  fill t (addr lsr line_shift) ~for_load:false

let store_int t addr v =
  check_word t addr;
  event t;
  let s = Array.unsafe_get t.slot_of (addr lsr line_shift) in
  let s =
    if s >= 0 then begin
      if t.metered then begin
        t.stats.Stats.stores <- t.stats.Stats.stores + 1;
        advance t t.cfg.Config.l1_hit_ns
      end;
      s
    end
    else store_miss t addr
  in
  set_le t.slot_data
    ((s lsl line_shift) lor (addr land line_mask))
    (Int64.of_int v);
  set_dirty t s

let load_bytes t addr len =
  check_range t addr len;
  event t;
  if t.metered then t.stats.Stats.loads <- t.stats.Stats.loads + 1;
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land line_mask in
    let n = min (line_size - off) (len - !pos) in
    let s = slot t (a lsr line_shift) ~for_load:true in
    Bytes.blit t.slot_data ((s lsl line_shift) + off) out !pos n;
    pos := !pos + n
  done;
  out

let store_bytes t addr b =
  let len = Bytes.length b in
  if len > 0 then begin
    check_range t addr len;
    event t;
    if t.metered then t.stats.Stats.stores <- t.stats.Stats.stores + 1;
    let pos = ref 0 in
    while !pos < len do
      let a = addr + !pos in
      let off = a land line_mask in
      let n = min (line_size - off) (len - !pos) in
      let s = slot t (a lsr line_shift) ~for_load:false in
      Bytes.blit b !pos t.slot_data ((s lsl line_shift) + off) n;
      set_dirty t s;
      pos := !pos + n
    done
  end

let clwb t addr =
  check_range t addr 1;
  event t;
  if t.metered then begin
    t.stats.Stats.clwbs <- t.stats.Stats.clwbs + 1;
    advance t t.cfg.Config.clwb_issue_ns
  end;
  if not t.cfg.Config.eadr then begin
    let li = addr lsr line_shift in
    let s = Array.unsafe_get t.slot_of li in
    if s >= 0 && is_dirty t s then begin
      (* accepted by the WPQ: persistent now, drain time paid at the
         fence *)
      wpq_accept t li;
      media_write_line t li t.slot_data (s lsl line_shift);
      Bytes.unsafe_set t.slot_dirty s '\000'
    end
  end

(* clflushopt: like clwb but also invalidates the cached copy — the next
   access misses.  Same persistence semantics (WPQ acceptance).  The
   victim is unlinked from the eviction FIFO, not just unmapped. *)
let clflushopt t addr =
  clwb t addr;
  let s = Array.unsafe_get t.slot_of (addr lsr line_shift) in
  if s >= 0 then invalidate_slot t s

let sfence t =
  event t;
  if t.metered then begin
    t.stats.Stats.fences <- t.stats.Stats.fences + 1;
    let latest =
      if t.wpq_len = 0 then t.clock.(fg)
      else
        (* completions are monotone: the tail entry is the latest *)
        let i = t.wpq_head + t.wpq_len - 1 in
        let wcap = Array.length t.wpq in
        Float.max t.clock.(fg) t.wpq.(if i >= wcap then i - wcap else i)
    in
    t.clock.(fg) <- latest +. t.cfg.Config.fence_ns
  end;
  t.wpq_head <- 0;
  t.wpq_len <- 0

let nt_store_bytes t addr b =
  (* under eADR a cached store is already durable; the non-temporal hint
     buys nothing and the write stays in the (persistent) cache *)
  if t.cfg.Config.eadr then store_bytes t addr b
  else
    let len = Bytes.length b in
    if len > 0 then begin
      check_range t addr len;
      event t;
      if t.metered then
        t.stats.Stats.nt_stores <- t.stats.Stats.nt_stores + 1;
      let pos = ref 0 in
      while !pos < len do
        let a = addr + !pos in
        let li = a lsr line_shift in
        let off = a land line_mask in
        let n = min (line_size - off) (len - !pos) in
        (* write-combining through the WPQ; cached copies are invalidated,
           merging with any cached dirty content first so that unrelated
           bytes of the line are not lost *)
        let s = Array.unsafe_get t.slot_of li in
        if s >= 0 then begin
          Bytes.blit b !pos t.slot_data ((s lsl line_shift) + off) n;
          wpq_accept t li;
          media_write_line t li t.slot_data (s lsl line_shift);
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
  if len > 0 then
    for li = addr lsr line_shift to (addr + len - 1) lsr line_shift do
      clwb t (li lsl line_shift)
    done

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
    (fun li -> List.init line_words (fun w -> (li lsl line_shift) + (w * 8)))
    (dirty_lines t)

(* Oracle-driven crash: [persist] decides, per dirty 8-byte word in
   ascending address order, whether the in-flight store reaches the media.
   Under eADR the caches sit inside the persistence domain, so everything
   drains regardless of the oracle. *)
let crash_with t ~persist =
  List.iter
    (fun li ->
      let s = t.slot_of.(li) in
      if s >= 0 then
        (* each 8-byte word may have drained independently (stores are
           word-atomic with respect to persistence) *)
        for w = 0 to line_words - 1 do
          let addr = (li lsl line_shift) + (w * 8) in
          if t.cfg.Config.eadr || persist addr then
            media_drain_word t t.slot_data ((s lsl line_shift) + (w * 8)) addr
        done)
    (dirty_lines t);
  clear_cache t;
  t.fuse <- 0

(* the coin-flip oracle: one draw per dirty word (none under eADR) *)
let crash t =
  let p = t.cfg.Config.crash_word_persist_prob in
  crash_with t ~persist:(fun _ -> Random.State.float t.rng 1.0 < p)

let with_unmetered t f =
  let saved = t.metered in
  t.metered <- false;
  Fun.protect ~finally:(fun () -> t.metered <- saved) f

(* little-endian, as the cache's [get_le] reads it *)
let peek_media_int t addr =
  check_word t addr;
  if written t (addr lsr line_shift) then
    let v = media_get64 t.media addr in
    Int64.to_int (if big_endian () then swap64 v else v)
  else 0

let peek_volatile_int t addr =
  check_word t addr;
  let s = Array.unsafe_get t.slot_of (addr lsr line_shift) in
  if s >= 0 then
    Int64.to_int
      (get_le t.slot_data ((s lsl line_shift) lor (addr land line_mask)))
  else peek_media_int t addr
