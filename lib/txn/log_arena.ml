open Specpmt_pmem
open Specpmt_pmalloc

(* Record layout:
     meta:   [size:8][timestamp:8][checksum:8]
     entry:  [target:8][value:8]          (target >= 0)
     marker: [-1:8][next_block_addr:8]    (record continues there)
   Block layout: [next:8][payload ...].
   [size] counts entry+marker bytes.  Torn or garbage metadata past the
   valid prefix is caught by the checksum.

   Shared geometry rule (append and scan agree on it): if fewer than
   [min_space] bytes remain in a block, the log continues in the next
   block. *)

let meta_bytes = 24
let entry_bytes = 16
let marker_target = -1
let min_space = meta_bytes + entry_bytes + 8 (* meta + one entry + slack *)

(* A page entry embeds a whole page image: [page_tag][page base address]
   followed by 4096 raw bytes, never spanning blocks.  This is the format
   the hardware bulk-copy engine writes on a cold-to-hot transition
   (Section 5.1) — 4 KiB of payload for 4 KiB of data. *)
let page_tag = -2
let page_entry_bytes = entry_bytes + Addr.page_size

(* A size word of [skip_tag] tells the scanner that the log continues in
   the block's successor even though room remained — written by
   [seal_block] when an epoch boundary forces a fresh block. *)
let skip_tag = -1

type entry_pos = int

(* Cursor of one record's entry walk, reused from record to record:
   [crc] is the running checksum fold, [next_pos]/[next_block] where the
   entry stream ended, and [addrs]/[vals]/[n] the data entries the walk
   copies — the flat scan buffer, which grows by doubling and never
   shrinks.  A per-record scan empties it after each record, so it stops
   allocating once it has met its largest record.  A gather keeps every
   record of every log in it, each entry's record timestamp in
   [stamps], which only a gather grows: a compaction's walk would
   otherwise carry a third array as long as its largest record. *)
type walk = {
  mutable crc : int;
  mutable next_pos : Addr.t;
  mutable next_block : Addr.t;
  mutable addrs : Addr.t array;
  mutable vals : int array;
  mutable stamps : int array;
  mutable n : int;
}

let new_walk cap =
  let cap = max cap 1 in
  {
    crc = 0;
    next_pos = 0;
    next_block = 0;
    addrs = Array.make cap 0;
    vals = Array.make cap 0;
    stamps = Array.make cap 0;
    n = 0;
  }

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  head_slot : int;
  block_bytes : int;
  mutable blocks : Addr.t list; (* newest first *)
  mutable n_blocks : int; (* cached [List.length blocks] — [footprint]
                             runs on every commit *)
  mutable head_block : Addr.t; (* cached chain head (oldest block) *)
  mutable cur_block : Addr.t;
  mutable pos : Addr.t; (* next append address *)
  (* open-record state *)
  mutable rec_meta : Addr.t; (* -1 when no record is open *)
  mutable rec_block : Addr.t; (* block containing rec_meta *)
  mutable rec_size : int; (* entry+marker bytes appended so far *)
  mutable rec_entries : int;
  (* [start,stop) spans of the open record, oldest first, as parallel
     flat arrays — the commit path appends and iterates these without
     allocating *)
  mutable seg_a : Addr.t array;
  mutable seg_b : Addr.t array;
  mutable n_segs : int;
  mutable seg_start : Addr.t;
  (* block-header next pointers written since the last commit; they must
     persist with the next committed record for the chain to be
     followable after a crash.  Oldest first. *)
  mutable pend_a : Addr.t array;
  mutable pend_b : Addr.t array;
  mutable n_pend : int;
  (* group commit: records committed with a deliberately poisoned
     checksum, oldest first — metadata address and true checksum per
     record, plus every record's spans concatenated in commit order.
     Invisible to every scan until [seal_tentative] patches the
     checksums and persists the whole batch under one flush run and a
     single fence. *)
  mutable tent_meta : Addr.t array;
  mutable tent_crc : int array;
  mutable n_tent : int;
  mutable tseg_a : Addr.t array;
  mutable tseg_b : Addr.t array;
  mutable n_tseg : int;
  commit_walk : walk; (* the commit path's checksum fold; copies nothing *)
}

type compact_stats = {
  records_scanned : int;
  entries_scanned : int;
  entries_live : int;
  blocks_freed : int;
  blocks_allocated : int;
}

(* The one volatile cell table: the live cells sit in first-insert order
   in the dense [addr]/[value]/[ts] arrays, and an open-addressing probe
   table of positions (-1 = empty) at twice the dense capacity finds a
   cell's position.  Nothing is ever deleted, so linear probing needs no
   tombstones.  [add] and [bind] share the probe and the insert; they
   differ only in what a present cell does. *)
module Lww = struct
  type t = {
    mutable addr : Addr.t array;
    mutable value : int array;
    mutable ts : int array;
    mutable n : int;
    mutable slots : int array;
    mutable mask : int; (* slots length - 1, a power of two *)
  }

  let initial_cells = 64

  (* A table whose cell capacity is at least [shrink_factor] times what
     the closing transaction used (never counting fewer than
     [initial_cells]) goes back to its initial size.  One large
     transaction — a service shard's 65,536-cell adoption — would
     otherwise leave arrays sized for it behind, and every later
     one-cell transaction would probe them, missing the host cache on
     every [bind] and [clear].  Transactions that keep using a 64th of
     the table never shrink it, and once shrunk, transactions that fit
     in 64 cells never grow it again. *)
  let shrink_factor = 64

  let fresh_arrays t =
    t.addr <- Array.make initial_cells 0;
    t.value <- Array.make initial_cells 0;
    t.ts <- Array.make initial_cells 0;
    t.slots <- Array.make (2 * initial_cells) (-1);
    t.mask <- (2 * initial_cells) - 1

  let create () =
    let t =
      { addr = [||]; value = [||]; ts = [||]; n = 0; slots = [||]; mask = 0 }
    in
    fresh_arrays t;
    t

  let length t = t.n

  (* Fibonacci hashing on the cell index, taking the product's bits 32
     and up.  The low bits of [(a lsr 3) * odd] depend only on the low
     bits of [a], so a log's power-of-two strides and long ascending runs
     pile up in a few probe clusters; the high bits mix every key bit. *)
  let[@inline] home t a = (((a lsr 3) * 0x1E3779B97F4A7C15) lsr 32) land t.mask

  let probe t a =
    let h = ref (home t a) in
    while
      let p = t.slots.(!h) in
      p >= 0 && t.addr.(p) <> a
    do
      h := (!h + 1) land t.mask
    done;
    !h

  let grow t =
    let cap = 2 * Array.length t.addr in
    let widen arr =
      let bigger = Array.make cap 0 in
      Array.blit arr 0 bigger 0 t.n;
      bigger
    in
    t.addr <- widen t.addr;
    t.value <- widen t.value;
    t.ts <- widen t.ts;
    t.slots <- Array.make (2 * cap) (-1);
    t.mask <- (2 * cap) - 1;
    for p = 0 to t.n - 1 do
      t.slots.(probe t t.addr.(p)) <- p
    done

  (* Bind an absent cell at position [n]; [h] is the empty probe-table
     slot its probe stopped at. *)
  let[@inline] insert t h a ~value ~ts =
    let h =
      if t.n < Array.length t.addr then h
      else begin
        grow t;
        probe t a
      end
    in
    let p = t.n in
    t.addr.(p) <- a;
    t.value.(p) <- value;
    t.ts.(p) <- ts;
    t.slots.(h) <- p;
    t.n <- p + 1;
    p

  (* An entry replaces the cell's binding iff it is at least as new. *)
  let add t a ~value ~ts =
    let h = probe t a in
    let p = t.slots.(h) in
    if p < 0 then ignore (insert t h a ~value ~ts)
    else if ts >= t.ts.(p) then begin
      t.value.(p) <- value;
      t.ts.(p) <- ts
    end

  let bind t a ~value ~ts =
    let h = probe t a in
    let p = t.slots.(h) in
    if p >= 0 then p else insert t h a ~value ~ts

  let pos t a = t.slots.(probe t a)
  let value t p = t.value.(p)
  let ts t p = t.ts.(p)
  let set_ts t p ts = t.ts.(p) <- ts

  let iter t f =
    for p = 0 to t.n - 1 do
      f t.addr.(p) ~value:t.value.(p) ~ts:t.ts.(p)
    done

  let iter_newest_first t f =
    for p = t.n - 1 downto 0 do
      f t.addr.(p) ~value:t.value.(p) ~ts:t.ts.(p)
    done

  (* Under linear probing with no deletions, removing the most recently
     inserted cell restores the probe table exactly as it was before that
     insert: the cell took the first empty slot on its probe path, and
     every other cell present went in earlier, when that slot was already
     empty, so no other cell's probe path crosses it.  [grow] re-inserts
     in first-insert order, so emptying the cells' slots newest first
     walks the table back to empty. *)
  let clear t =
    if Array.length t.addr >= shrink_factor * max t.n initial_cells then
      fresh_arrays t
    else
      for p = t.n - 1 downto 0 do
        t.slots.(probe t t.addr.(p)) <- -1
      done;
    t.n <- 0
end

let pm t = t.pm
let block_end t b = b + t.block_bytes
let payload b = b + 8
let has_open_record t = t.rec_meta >= 0
let entry_words t = t.rec_entries
let footprint t = t.n_blocks * t.block_bytes
let block_count t = t.n_blocks

(* flat span buffers: amortized O(1) push, reset by zeroing the count;
   capacity never shrinks, so a steady-state commit path stops allocating
   after warm-up *)
let grown arr n =
  if n < Array.length arr then arr
  else begin
    let bigger = Array.make (2 * Array.length arr) 0 in
    Array.blit arr 0 bigger 0 n;
    bigger
  end

let push_seg t a b =
  t.seg_a <- grown t.seg_a t.n_segs;
  t.seg_b <- grown t.seg_b t.n_segs;
  t.seg_a.(t.n_segs) <- a;
  t.seg_b.(t.n_segs) <- b;
  t.n_segs <- t.n_segs + 1

let push_pend t a b =
  t.pend_a <- grown t.pend_a t.n_pend;
  t.pend_b <- grown t.pend_b t.n_pend;
  t.pend_a.(t.n_pend) <- a;
  t.pend_b.(t.n_pend) <- b;
  t.n_pend <- t.n_pend + 1

let push_tseg t a b =
  t.tseg_a <- grown t.tseg_a t.n_tseg;
  t.tseg_b <- grown t.tseg_b t.n_tseg;
  t.tseg_a.(t.n_tseg) <- a;
  t.tseg_b.(t.n_tseg) <- b;
  t.n_tseg <- t.n_tseg + 1

let push_tent t meta crc =
  t.tent_meta <- grown t.tent_meta t.n_tent;
  t.tent_crc <- grown t.tent_crc t.n_tent;
  t.tent_meta.(t.n_tent) <- meta;
  t.tent_crc.(t.n_tent) <- crc;
  t.n_tent <- t.n_tent + 1

let flush_pending t =
  for i = 0 to t.n_pend - 1 do
    Pmem.flush_range t.pm t.pend_a.(i) (t.pend_b.(i) - t.pend_a.(i))
  done;
  t.n_pend <- 0

let alloc_block t =
  let b = Heap.alloc_log t.heap t.block_bytes in
  (* zero the next pointer and the first size word so that a scan arriving
     here stops cleanly even before anything is committed *)
  Pmem.store_int t.pm b 0;
  Pmem.store_int t.pm (payload b) 0;
  b

let mk heap ~head_slot ~block_bytes b =
  {
    heap;
    pm = Heap.pmem heap;
    head_slot;
    block_bytes;
    blocks = [ b ];
    n_blocks = 1;
    head_block = b;
    cur_block = b;
    pos = payload b;
    rec_meta = -1;
    rec_block = -1;
    rec_size = 0;
    rec_entries = 0;
    seg_a = Array.make 8 0;
    seg_b = Array.make 8 0;
    n_segs = 0;
    seg_start = -1;
    pend_a = Array.make 8 0;
    pend_b = Array.make 8 0;
    n_pend = 0;
    tent_meta = Array.make 8 0;
    tent_crc = Array.make 8 0;
    n_tent = 0;
    tseg_a = Array.make 8 0;
    tseg_b = Array.make 8 0;
    n_tseg = 0;
    commit_walk = new_walk 1;
  }

let publish_head t b =
  let slot = Heap.root_slot t.heap t.head_slot in
  Pmem.store_int t.pm slot b;
  Pmem.clwb t.pm slot;
  Pmem.sfence t.pm

let create heap ~head_slot ~block_bytes =
  assert (block_bytes >= 256 && block_bytes mod 8 = 0);
  let pm = Heap.pmem heap in
  let b = Heap.alloc_log heap block_bytes in
  Pmem.store_int pm b 0;
  Pmem.store_int pm (payload b) 0;
  Pmem.flush_range pm b 16;
  let t = mk heap ~head_slot ~block_bytes b in
  publish_head t b;
  t

(* Chain a fresh block onto the open end of the log.  If a record is open,
   a marker entry redirects the scanner; either way the predecessor's next
   pointer is set, and its cell is queued to persist with the next commit. *)
let chain_block t =
  let nb = alloc_block t in
  if has_open_record t then begin
    Pmem.store_int t.pm t.pos marker_target;
    Pmem.store_int t.pm (t.pos + 8) nb;
    t.rec_size <- t.rec_size + entry_bytes;
    push_seg t t.seg_start (t.pos + entry_bytes);
    t.seg_start <- payload nb
  end;
  Pmem.store_int t.pm t.cur_block nb;
  push_pend t t.cur_block (t.cur_block + 8);
  t.blocks <- nb :: t.blocks;
  t.n_blocks <- t.n_blocks + 1;
  t.cur_block <- nb;
  t.pos <- payload nb

let ensure_room t n =
  if t.pos + n + entry_bytes + 8 > block_end t t.cur_block then chain_block t

let begin_record t =
  assert (not (has_open_record t));
  if block_end t t.cur_block - t.pos < min_space then chain_block t;
  t.rec_meta <- t.pos;
  t.rec_block <- t.cur_block;
  t.rec_size <- 0;
  t.rec_entries <- 0;
  t.n_segs <- 0;
  t.seg_start <- t.pos;
  t.pos <- t.pos + meta_bytes

let add_entry t ~target ~value =
  assert (has_open_record t && target >= 0);
  ensure_room t entry_bytes;
  let p = t.pos in
  Pmem.store_int t.pm p target;
  Pmem.store_int t.pm (p + 8) value;
  t.pos <- p + entry_bytes;
  t.rec_size <- t.rec_size + entry_bytes;
  t.rec_entries <- t.rec_entries + 1;
  p + 8

let set_entry_value t pos v =
  assert (has_open_record t);
  Pmem.store_int t.pm pos v

(* Drop an open record that received no entries: a zero-size record is
   indistinguishable from the end-of-log sentinel, so empty transactions
   must not leave one behind.  Only legal while the record is empty —
   nothing has been chained past its metadata. *)
let abandon_record t =
  assert (has_open_record t && t.rec_size = 0);
  t.pos <- t.rec_meta;
  Pmem.store_int t.pm t.pos 0;
  t.rec_meta <- -1;
  t.rec_block <- -1;
  t.rec_entries <- 0;
  t.n_segs <- 0;
  t.seg_start <- -1

let[@inline] fold w a b = w.crc <- Checksum.crc32c_pair w.crc a b

let push w a v =
  if w.n = Array.length w.addrs then begin
    w.addrs <- grown w.addrs w.n;
    w.vals <- grown w.vals w.n
  end;
  w.addrs.(w.n) <- a;
  w.vals.(w.n) <- v;
  w.n <- w.n + 1

(* Walk the entry stream of a record, following markers.  [block] is the
   block containing [meta].  Folds every entry and marker word into
   [w.crc] (which the caller seeds with the metadata words) and, with
   [~copy:true], appends every data entry to [w]'s scan buffer.  Returns
   [true] with [w.next_pos]/[w.next_block] one past the stream, or
   [false] if the stream is malformed (torn size or dangling marker).
   Allocates nothing but buffer growth. *)
let walk_entries pm ~block_bytes ~block ~meta ~size ~copy w =
  let pos = ref (meta + meta_bytes) in
  let cur_block = ref block in
  let consumed = ref 0 in
  let ok = ref true in
  let mem = Pmem.mem_size pm in
  while !ok && !consumed < size do
    if !pos + entry_bytes > !cur_block + block_bytes then ok := false
    else begin
      let target = Pmem.load_int pm !pos in
      let value = Pmem.load_int pm (!pos + 8) in
      if target = marker_target then
        if value <= 0 || value + block_bytes > mem then ok := false
        else begin
          fold w target value;
          consumed := !consumed + entry_bytes;
          cur_block := value;
          pos := payload value
        end
      else if target = page_tag then
        if
          value < 0
          || value + Addr.page_size > mem
          || Addr.page_of value <> value
          || !pos + page_entry_bytes > !cur_block + block_bytes
        then ok := false
        else begin
          fold w target value;
          for k = 0 to (Addr.page_size / 8) - 1 do
            let a = value + (k * 8) in
            let v = Pmem.load_int pm (!pos + entry_bytes + (k * 8)) in
            fold w a v;
            if copy then push w a v
          done;
          consumed := !consumed + page_entry_bytes;
          pos := !pos + page_entry_bytes
        end
      else if target < 0 then ok := false
      else begin
        fold w target value;
        if copy then push w target value;
        consumed := !consumed + entry_bytes;
        pos := !pos + entry_bytes
      end
    end
  done;
  w.next_pos <- !pos;
  w.next_block <- !cur_block;
  !ok

(* The checksum fold of [size; ts] — the words every record's stream
   starts with. *)
let meta_crc ~size ~ts = Checksum.crc32c_pair 0 size ts

let commit_record ?(fence = true) ?(tentative = false) t ~timestamp =
  assert (has_open_record t);
  (* a valid record appended past pending tentative ones would sit behind
     a checksum gap and be unreachable by the valid-prefix scan — the
     open batch must be sealed before any individually-persisted commit *)
  assert (tentative || t.n_tent = 0);
  let meta = t.rec_meta in
  (* sentinel for the record that will follow *)
  Pmem.store_int t.pm t.pos 0;
  push_seg t t.seg_start (t.pos + 8);
  (* incremental fold over the stream [size; ts; tgt0; v0; ...] — the
     commit hot path builds no list and no byte buffer ([Checksum.words]
     remains the differential-test oracle for this fold) *)
  let w = t.commit_walk in
  w.crc <- meta_crc ~size:t.rec_size ~ts:timestamp;
  let well_formed =
    walk_entries t.pm ~block_bytes:t.block_bytes ~block:t.rec_block ~meta
      ~size:t.rec_size ~copy:false w
  in
  assert well_formed;
  let crc = w.crc in
  Pmem.store_int t.pm meta t.rec_size;
  Pmem.store_int t.pm (meta + 8) timestamp;
  if tentative then begin
    (* group commit: the poisoned checksum keeps the record invisible to
       every scan — whatever subset of its lines a crash persists, the
       prefix walk stops here.  [seal_tentative] writes the true checksum
       and persists the whole batch under one fence. *)
    Pmem.store_int t.pm (meta + 16) (crc lxor 1);
    push_tent t meta crc;
    for i = 0 to t.n_segs - 1 do
      push_tseg t t.seg_a.(i) t.seg_b.(i)
    done
  end
  else Pmem.store_int t.pm (meta + 16) crc;
  (* one flush run over the record's spans, then a single fence: the
     speculative-logging commit of Figure 2 (right).  Tentative records
     defer both to the seal.  Pending chain pointers go first, then the
     record spans in append order. *)
  if not tentative then begin
    flush_pending t;
    for i = 0 to t.n_segs - 1 do
      Pmem.flush_range t.pm t.seg_a.(i) (t.seg_b.(i) - t.seg_a.(i))
    done;
    if fence then Pmem.sfence t.pm
  end;
  Specpmt_obs.Trace.emit "arena.commit" ~a:timestamp ~b:t.rec_entries;
  t.rec_meta <- -1;
  t.rec_block <- -1;
  t.rec_size <- 0;
  t.rec_entries <- 0;
  t.n_segs <- 0;
  t.seg_start <- -1

let tentative_records t = t.n_tent

(* Seal a group-commit batch: patch the true checksum into every
   tentative record (plain stores, oldest first), then persist all of
   them — every record span plus the chain pointers written since the
   last persisted commit — with one flush run and a single fence.  The
   whole batch amortizes the one ordering point SpecPMT has left, so K
   batched transactions cost ~1/K fences each.  At a crash inside the
   seal the records become durable in append order: the valid-prefix
   scan stops at the first unpatched (still poisoned) checksum. *)
let seal_tentative t =
  assert (not (has_open_record t));
  if t.n_tent = 0 then 0
  else begin
    for i = 0 to t.n_tent - 1 do
      Pmem.store_int t.pm (t.tent_meta.(i) + 16) t.tent_crc.(i)
    done;
    flush_pending t;
    for i = 0 to t.n_tseg - 1 do
      Pmem.flush_range t.pm t.tseg_a.(i) (t.tseg_b.(i) - t.tseg_a.(i))
    done;
    Pmem.sfence t.pm;
    let n = t.n_tent in
    t.n_tent <- 0;
    t.n_tseg <- 0;
    Specpmt_obs.Trace.emit "arena.seal" ~a:n;
    n
  end

(* Shared valid-prefix walk, one pass per record: the checksum words and
   the record's entries are gathered by the same [walk_entries]
   traversal, so every log line is loaded once (the scan is the
   sequential stream the device's read fast path models).  Each valid
   record's entries are appended to the scan buffer [w], at [start ..
   w.n - 1], and [f ~ts start] is called, oldest record first; the
   entries of the record that ends the scan are dropped again.  Returns
   (max_ts, end_pos, end_block).  This is the one scan loop: a
   per-record scan ([per_record]) empties the buffer after each record,
   a gather ([gather]) keeps them all.

   A record is valid only if its checksum matches {e and} its timestamp
   exceeds every earlier one.  Every writer stamps a log from a monotonic
   counter, and compaction emits its survivors in ascending timestamp
   order, so a valid log scans the same under either rule.  What the
   timestamp rule rejects is a block reached through a successor pointer
   that hit the media before the fresh block's zeroed header did: a block
   recycled from an older chain, whose media still holds records with
   valid checksums and older timestamps.  It also ends a walk around a
   cyclic chain, since a revisited record is never newer than itself; a
   cycle of record-less (skip-marked) blocks is cut by the hop bound, as
   no chain holds more blocks than the device does. *)
let scan_records pm ~block_bytes ~head w ~f =
  let mem = Pmem.mem_size pm in
  let max_ts = ref 0 in
  let continue = ref true in
  let cur_block = ref head in
  let pos = ref (payload head) in
  let hops = ref (mem / block_bytes) in
  let follow_next () =
    let nb = Pmem.load_int pm !cur_block in
    if nb <= 0 || nb + block_bytes > mem || !hops = 0 then continue := false
    else begin
      decr hops;
      cur_block := nb;
      pos := payload nb
    end
  in
  while !continue do
    if !cur_block + block_bytes - !pos < min_space then
      (* geometry rule: the log continued in the next block, if any *)
      follow_next ()
    else begin
      let size = Pmem.load_int pm !pos in
      if size = skip_tag then (* sealed block: continue in the successor *)
        follow_next ()
      else if size < entry_bytes || size mod entry_bytes <> 0 || size > mem
      then continue := false
      else begin
        let ts = Pmem.load_int pm (!pos + 8) in
        let crc = Pmem.load_int pm (!pos + 16) in
        let start = w.n in
        w.crc <- meta_crc ~size ~ts;
        if
          walk_entries pm ~block_bytes ~block:!cur_block ~meta:!pos ~size
            ~copy:true w
          && w.crc = crc && ts > !max_ts
        then begin
          f ~ts start;
          max_ts := ts;
          pos := w.next_pos;
          cur_block := w.next_block
        end
        else begin
          w.n <- start;
          continue := false
        end
      end
    end
  done;
  (!max_ts, !pos, !cur_block)

(* [f ~ts addrs vals n] on each record's entries, then the buffer is
   emptied for the next record. *)
let per_record w f ~ts _ =
  f ~ts w.addrs w.vals w.n;
  w.n <- 0

(* Where a scan found the end of a log's valid prefix.  [scan_head] is 0
   when the head slot held no log. *)
type tail = {
  scan_slot : int;
  scan_block_bytes : int;
  scan_head : Addr.t;
  end_block : Addr.t;
  end_pos : Addr.t;
}

(* The scan of the log whose head pointer is in root slot [head_slot]. *)
let scan_slot pm ~head_slot ~block_bytes w ~f =
  let head = Pmem.load_int pm (Layout.root_slot head_slot) in
  let tail =
    {
      scan_slot = head_slot;
      scan_block_bytes = block_bytes;
      scan_head = 0;
      end_block = 0;
      end_pos = 0;
    }
  in
  if head <= 0 then (0, tail)
  else
    let max_ts, pos, block = scan_records pm ~block_bytes ~head w ~f in
    (max_ts, { tail with scan_head = head; end_block = block; end_pos = pos })

let recover_scan pm ~head_slot ~block_bytes ~f =
  let w = new_walk 64 in
  scan_slot pm ~head_slot ~block_bytes w ~f:(per_record w f)

(* Last-writer-wins fold of one log's records into [index]: within one
   log, scan order is timestamp order, so a plain [>=] replacement
   resolves both intra-record duplicates and cross-record staleness.
   Compaction finds its survivors with it, switch-out its flush set. *)
let collect index records scanned ~ts addrs vals n =
  incr records;
  scanned := !scanned + n;
  for i = 0 to n - 1 do
    Lww.add index addrs.(i) ~value:vals.(i) ~ts
  done

let recover_collect pm ~head_slot ~block_bytes =
  let index = Lww.create () and records = ref 0 and scanned = ref 0 in
  let max_ts, tail =
    recover_scan pm ~head_slot ~block_bytes ~f:(collect index records scanned)
  in
  (index, max_ts, !records, !scanned, tail)

(* Gather: the scans of every log of [head_slots], in order, leave all
   their valid entries in [w], each log's oldest record first, every
   entry with its record's timestamp.  Returns (max_ts, tails,
   records). *)
let gather pm ~block_bytes w head_slots =
  let max_ts = ref 0 and records = ref 0 in
  let stamp ~ts start =
    incr records;
    if Array.length w.stamps < w.n then begin
      let bigger = Array.make (Array.length w.addrs) 0 in
      Array.blit w.stamps 0 bigger 0 start;
      w.stamps <- bigger
    end;
    let stamps = w.stamps in
    for i = start to w.n - 1 do
      stamps.(i) <- ts
    done
  in
  let tails =
    Array.map
      (fun head_slot ->
        let ts, tail = scan_slot pm ~head_slot ~block_bytes w ~f:stamp in
        if ts > !max_ts then max_ts := ts;
        tail)
      head_slots
  in
  (!max_ts, tails, !records)

(* (passes, width) of the digits covering [bits] key bits with [room]
   words for the counts: digits up to 16 bits wide, as wide as the room
   allows, then as narrow as that number of passes allows. *)
let digits ~bits ~room =
  if room < 2 then invalid_arg "Log_arena: sort temporary too short";
  let max_width = ref 1 in
  while !max_width < 16 && 1 lsl (!max_width + 1) <= room do
    incr max_width
  done;
  let passes = max 1 ((bits + !max_width - 1) / !max_width) in
  (passes, (bits + passes - 1) / passes)

(* Stable LSD counting sort of the packed keys [keys.(0 .. n-1)] by
   their field [key lsr shift] alone, which is below [1 lsl bits]; the
   bits under [shift] ride along.  Linear in [n], no comparisons.
   Everything goes through [tmp] (at least [n + 3] long; clobbered): its
   first [n] words take every other pass's output and the words past
   them the digit counts, so the longer [tmp], the wider the digits and
   the fewer the passes; the sort allocates nothing.  Returns the array
   holding the sorted keys: [keys] or [tmp]. *)
let radix_sort_packed ~n ~shift ~bits keys tmp =
  if n < 2 || bits = 0 then keys
  else begin
    let passes, width = digits ~bits ~room:(Array.length tmp - n - 1) in
    let mask = (1 lsl width) - 1 in
    (* digit [k] counts at [tmp.(n + 1 + k)], then starts at [tmp.(n + k)] *)
    let src = ref keys and dst = ref tmp in
    for p = 0 to passes - 1 do
      let shift = shift + (p * width) and s = !src and d = !dst in
      Array.fill tmp n (mask + 2) 0;
      for j = 0 to n - 1 do
        let k = n + 1 + ((s.(j) lsr shift) land mask) in
        tmp.(k) <- tmp.(k) + 1
      done;
      for k = n + 1 to n + mask + 1 do
        tmp.(k) <- tmp.(k) + tmp.(k - 1)
      done;
      for j = 0 to n - 1 do
        let key = s.(j) in
        let k = n + ((key lsr shift) land mask) in
        d.(tmp.(k)) <- key;
        tmp.(k) <- tmp.(k) + 1
      done;
      src := d;
      dst := s
    done;
    !src
  end

let bits_of x =
  let b = ref 0 in
  while x lsr !b > 0 do
    incr b
  done;
  !b

(* The paper's replay (Section 3.1) over logs that share a timestamp
   counter (Section 5.2.2).  Each log's scan is already in timestamp
   order (the valid-prefix rule), so one log stores its entries as the
   scan meets them; several logs are copied out of the scan buffer and
   merged by timestamp first.  Every store is kept — stale values are
   overwritten by fresher ones — and each restored cell is flushed once,
   in the order replay first stored it, under one fence. *)
let replay ?(on_store = fun _ _ -> ()) pm ~block_bytes head_slots =
  let touched = Lww.create () in
  let records = ref 0 and entries = ref 0 and max_ts = ref 0 in
  let store log addrs vals n =
    for i = 0 to n - 1 do
      Pmem.store_int pm addrs.(i) vals.(i);
      Lww.add touched addrs.(i) ~value:0 ~ts:0;
      on_store log addrs.(i)
    done
  in
  let one = Array.length head_slots = 1 and held = ref [] in
  let tails =
    Array.mapi
      (fun log head_slot ->
        let ts, tail =
          recover_scan pm ~head_slot ~block_bytes ~f:(fun ~ts addrs vals n ->
              incr records;
              entries := !entries + n;
              if one then store log addrs vals n
              else
                held :=
                  (ts, log, Array.sub addrs 0 n, Array.sub vals 0 n) :: !held)
        in
        if ts > !max_ts then max_ts := ts;
        tail)
      head_slots
  in
  List.iter
    (fun (_, log, addrs, vals) -> store log addrs vals (Array.length addrs))
    (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !held);
  Lww.iter touched (fun a ~value:_ ~ts:_ -> Pmem.clwb pm a);
  Pmem.sfence pm;
  (!max_ts, tails, !records, !entries, Lww.length touched)

(* Coalescing restore by gather-and-sort.  Every valid entry of every log
   goes into one flat buffer, sized up front for [log_bytes / 16]
   entries, in scan order.  Each entry's key packs its line, its word in
   the line and its scan index, and one stable radix sort orders the keys
   by line alone, so a line's entries stay in scan order.  One pass per
   line then keeps each word's newest entry — timestamp [>=], so of equal
   timestamps the later entry wins, the [Lww.add] rule — and stores the
   survivors in the order their words first appear in the scan, then
   [clwb]s the line once after its last store; one fence ends the pass.
   So the lines drain in ascending order, each once, and adjacent lines
   form one sequential stream.  The scan index needs [bits_of (n - 1)]
   bits and the line offset from the lowest line [bits_of (lines - 1)];
   the key is refused if they and the 3 word bits pass 62 bits. *)
let coalesce pm ~block_bytes ~log_bytes head_slots =
  let w = new_walk (log_bytes / entry_bytes) in
  let max_ts, tails, records = gather pm ~block_bytes w head_slots in
  let n = w.n and addrs = w.addrs and vals = w.vals and stamps = w.stamps in
  let cells = ref 0 in
  if n > 0 then begin
    let lo = ref max_int and hi = ref min_int in
    for i = 0 to n - 1 do
      let a = addrs.(i) in
      if a < !lo then lo := a;
      if a > !hi then hi := a
    done;
    let base = Addr.line_of !lo in
    let idx_bits = bits_of (n - 1)
    and line_bits = bits_of (Addr.line_index (!hi - base)) in
    if line_bits + 3 + idx_bits > 62 then
      Fmt.invalid_arg
        "Log_arena.coalesce: %d entries over %d lines overflow a sort key" n
        (Addr.line_index (!hi - base) + 1);
    for i = 0 to n - 1 do
      addrs.(i) <- (((addrs.(i) - base) lsr 3) lsl idx_bits) lor i
    done;
    let shift = idx_bits + 3 and idx = (1 lsl idx_bits) - 1 in
    (* the temporary: the keys and one digit's counts, the digits no
       wider than [n] allows, so a short recovery does not clear 65,536
       counts per pass *)
    let _, width = digits ~bits:line_bits ~room:(min n (1 lsl 16) + 2) in
    let keys =
      radix_sort_packed ~n ~shift ~bits:line_bits addrs
        (Array.make (n + (1 lsl width) + 1) 0)
    in
    (* a line's words: newest value and its timestamp, and the words in
       first-scan order ([seen] is a bit per word) *)
    let value = Array.make 8 0
    and stamp = Array.make 8 0
    and order = Array.make 8 0 in
    let j = ref 0 in
    while !j < n do
      let line = keys.(!j) lsr shift in
      let seen = ref 0 and k = ref 0 in
      while !j < n && keys.(!j) lsr shift = line do
        let key = keys.(!j) in
        let i = key land idx and word = (key lsr idx_bits) land 7 in
        if !seen land (1 lsl word) = 0 then begin
          seen := !seen lor (1 lsl word);
          order.(!k) <- word;
          incr k;
          value.(word) <- vals.(i);
          stamp.(word) <- stamps.(i)
        end
        else if stamps.(i) >= stamp.(word) then begin
          value.(word) <- vals.(i);
          stamp.(word) <- stamps.(i)
        end;
        incr j
      done;
      let line_addr = base + (line * Addr.line_size) in
      for q = 0 to !k - 1 do
        Pmem.store_int pm (line_addr + (order.(q) * 8)) value.(order.(q))
      done;
      Pmem.clwb pm (line_addr + (order.(!k - 1) * 8));
      cells := !cells + !k
    done
  end;
  Pmem.sfence pm;
  (max_ts, tails, records, n, !cells)

(* [order] is sorted by address, then by timestamp: each key's offset
   from the smallest is packed above the cell's index in [order] itself,
   sorted by [radix_sort_packed] and unpacked; an offset wider than the
   [62 - idx_bits] bits the index leaves is sorted a slice at a time,
   least significant first. *)
let ts_addr_order ~n ~ts ~addr ~tmp =
  let order = Array.init n Fun.id in
  let idx_bits = bits_of (n - 1) in
  let idx = (1 lsl idx_bits) - 1 and slice = 62 - idx_bits in
  let by keys =
    let lo = ref max_int and hi = ref min_int in
    for i = 0 to n - 1 do
      let k = keys.(i) in
      if k < !lo then lo := k;
      if k > !hi then hi := k
    done;
    let bits = if n > 1 then bits_of (!hi - !lo) else 0 and lo = !lo in
    let from = ref 0 in
    while !from < bits do
      let width = min slice (bits - !from) and shift = !from in
      let field = (1 lsl width) - 1 in
      for j = 0 to n - 1 do
        let i = order.(j) in
        order.(j) <-
          ((((keys.(i) - lo) lsr shift) land field) lsl idx_bits) lor i
      done;
      let sorted =
        radix_sort_packed ~n ~shift:idx_bits ~bits:width order tmp
      in
      for j = 0 to n - 1 do
        order.(j) <- sorted.(j) land idx
      done;
      from := !from + width
    done
  in
  by addr;
  by ts;
  order

let attach heap ~tail =
  let head_slot = tail.scan_slot and block_bytes = tail.scan_block_bytes in
  if tail.scan_head <= 0 then create heap ~head_slot ~block_bytes
  else begin
    let pm = Heap.pmem heap in
    let head = tail.scan_head and pos = tail.end_pos in
    (* The recovery scan's tail is still exact here: recovery stores
       only to cells that log entries target, and no such cell lies in a
       log block (log blocks come from the heap's log zone, data from its
       data zone).  Rebuild the block list by walking the chain,
       one load per block; a hashed visited set keeps the cycle check
       O(1) per block on long chains. *)
    let blocks = ref [] in
    let visited : (Addr.t, unit) Hashtbl.t = Hashtbl.create 64 in
    let b = ref head in
    let mem = Pmem.mem_size pm in
    let looping = ref true in
    while !looping do
      blocks := !b :: !blocks;
      Hashtbl.replace visited !b ();
      let nb = Pmem.load_int pm !b in
      if nb <= 0 || nb + block_bytes > mem || Hashtbl.mem visited nb then
        looping := false
      else b := nb
    done;
    let t = mk heap ~head_slot ~block_bytes head in
    t.blocks <- !blocks;
    t.n_blocks <- List.length !blocks;
    t.cur_block <- tail.end_block;
    t.pos <- pos;
    (* Make sure torn garbage right at the append point cannot be mistaken
       for a record before the next commit.  The sentinel must itself be
       persisted: a crash before the next commit would otherwise drop the
       volatile zero while leaving whatever the media held at [pos] — and
       if post-attach appends re-populate the torn record's entry words
       (a re-executed transaction writes the same entries at the same
       offsets), a second crash can leak them and complete a stale record
       whose checksum validates. *)
    Pmem.store_int pm pos 0;
    Pmem.clwb pm pos;
    Pmem.sfence pm;
    Specpmt_obs.Trace.emit "arena.attach" ~a:head ~b:pos;
    t
  end

(* Append a standalone committed record embedding the current image of
   one page — the bulk-copy engine's cold-to-hot page adoption.  The whole
   record (metadata + page entry) is contiguous within one block; if the
   current block lacks room, a skip marker redirects the scanner to a
   fresh block.  Fence-free: the flushes are persistent on
   write-pending-queue acceptance and the engine orders them before the
   page is marked hot. *)
let append_page_record t ~timestamp ~page_base =
  assert (not (has_open_record t));
  assert (t.n_tent = 0);
  assert (Addr.page_of page_base = page_base);
  let need = meta_bytes + page_entry_bytes + 8 in
  if t.block_bytes < need + 8 then
    Fmt.invalid_arg "Log_arena: block size %d too small for page records"
      t.block_bytes;
  if t.pos + need > block_end t t.cur_block then begin
    Pmem.store_int t.pm t.pos skip_tag;
    push_pend t t.pos (t.pos + 8);
    chain_block t
  end;
  let meta = t.pos in
  let size = page_entry_bytes in
  Pmem.store_int t.pm (meta + meta_bytes) page_tag;
  Pmem.store_int t.pm (meta + meta_bytes + 8) page_base;
  let content = Pmem.load_bytes t.pm page_base Addr.page_size in
  Pmem.store_bytes t.pm (meta + meta_bytes + entry_bytes) content;
  t.pos <- meta + meta_bytes + size;
  Pmem.store_int t.pm t.pos 0;
  (* folded in stream order [size; ts; tag; base; a0; v0; ...] — the
     same word sequence [walk_entries] folds when scanning *)
  let crc =
    ref (Checksum.crc32c_pair (meta_crc ~size ~ts:timestamp) page_tag page_base)
  in
  for w = 0 to (Addr.page_size / 8) - 1 do
    crc :=
      Checksum.crc32c_pair !crc
        (page_base + (w * 8))
        (Int64.to_int (Bytes.get_int64_le content (w * 8)))
  done;
  Pmem.store_int t.pm meta size;
  Pmem.store_int t.pm (meta + 8) timestamp;
  Pmem.store_int t.pm (meta + 16) !crc;
  Pmem.flush_range t.pm meta (t.pos + 8 - meta);
  flush_pending t

let current_block t = t.cur_block

(* Force the next record to start in a fresh block, so that a chain prefix
   ending just before it can be dropped wholesale (epoch reclamation).
   The skip marker and the successor pointer persist with the next
   committed record's flush run. *)
let seal_block t =
  assert (not (has_open_record t));
  assert (t.n_tent = 0);
  Pmem.store_int t.pm t.pos skip_tag;
  push_pend t t.pos (t.pos + 8);
  chain_block t

let drop_prefix t ~keep_from =
  assert (not (has_open_record t));
  assert (t.n_tent = 0);
  (* blocks is newest-first; everything after [keep_from] is the prefix.
     One pass both finds the boundary and splits, instead of a [List.mem]
     probe followed by a second walk. *)
  let rec split acc = function
    | [] -> invalid_arg "Log_arena.drop_prefix: unknown boundary block"
    | b :: rest when b = keep_from -> (List.rev (b :: acc), rest)
    | b :: rest -> split (b :: acc) rest
  in
  let kept, dropped = split [] t.blocks in
  if dropped = [] then 0
  else begin
    (* atomic head switch, then the prefix blocks are dead *)
    publish_head t keep_from;
    List.iter (fun b -> Heap.free t.heap b) dropped;
    t.blocks <- kept;
    t.n_blocks <- List.length kept;
    t.head_block <- keep_from;
    List.length dropped
  end

(* Durably empty the log: persist an end-of-log sentinel over the head
   block's payload, sever its successor pointer, and only then recycle
   the other blocks.  The two invalidation stores must NOT be combined
   into one flush: a crash can persist any per-word subset, and the
   subset {next = 0, first size word intact} leaves a scannable record
   PREFIX behind a severed chain — replaying that prefix rolls cells
   already covered by fresher (durable, possibly truncated) records back
   to stale values.  Both the full log and the empty log replay to the
   current durable data (the caller persisted everything the log covers
   before calling), so the sentinel is made the single 8-byte commit
   point of the transition: persist it alone first, then sever the
   chain — a scan that still sees the old successor pointer stops at the
   sentinel before ever following it. *)
let reset t =
  assert (not (has_open_record t));
  assert (t.n_tent = 0);
  let head = t.head_block in
  Pmem.store_int t.pm (payload head) 0;
  Pmem.clwb t.pm (payload head);
  Pmem.sfence t.pm;
  (* the chain pointer must be durably dead before appends refill the
     head block: a scan past a refilled block would otherwise follow it
     into recycled successors whose old records still checksum *)
  Pmem.store_int t.pm head 0;
  Pmem.clwb t.pm head;
  Pmem.sfence t.pm;
  List.iter (fun b -> if b <> head then Heap.free t.heap b) t.blocks;
  t.blocks <- [ head ];
  t.n_blocks <- 1;
  t.cur_block <- head;
  t.pos <- payload head;
  t.n_pend <- 0;
  Specpmt_obs.Trace.emit "arena.reset" ~a:head

let compact t =
  assert (not (has_open_record t));
  assert (t.n_tent = 0);
  (* freshest surviving (value, commit timestamp) per datum *)
  let freshest = Lww.create () in
  let records = ref 0 and scanned = ref 0 in
  let w = new_walk 64 in
  let _, _, _ =
    scan_records t.pm ~block_bytes:t.block_bytes ~head:t.head_block w
      ~f:(per_record w (collect freshest records scanned))
  in
  let live = Lww.length freshest in
  let old_blocks = t.blocks in
  (* Build the replacement chain.  Each entry must keep the timestamp of
     the record it came from: collapsing everything into one record
     stamped with the newest contributing timestamp would reorder entries
     against other logs replayed in global timestamp order (Section
     5.2.2) — thread A's stale x@ts1, restamped ts3, would replay after
     thread B's fresher x@ts2.  So the compacted output is one record per
     contributing timestamp, committed in ascending timestamp order (the
     scan order of the new chain then agrees with the timestamp order,
     as required of any single log), its entries in ascending address
     order — so the compacted bytes depend on the log alone, not on the
     table's layout.  The probe table has served its purpose once the
     scan is done; it is the sort's temporary. *)
  let { Lww.addr; value; ts; slots; _ } = freshest in
  let order = ts_addr_order ~n:live ~ts ~addr ~tmp:slots in
  let b0 = alloc_block t in
  let t2 = mk t.heap ~head_slot:t.head_slot ~block_bytes:t.block_bytes b0 in
  if live > 0 then begin
    let k = ref 0 in
    while !k < live do
      let stamp = ts.(order.(!k)) in
      begin_record t2;
      while !k < live && ts.(order.(!k)) = stamp do
        let p = order.(!k) in
        ignore (add_entry t2 ~target:addr.(p) ~value:value.(p));
        incr k
      done;
      (* flushes are persistent on WPQ acceptance; one fence after the
         last record covers the whole new chain *)
      commit_record t2 ~timestamp:stamp ~fence:false
    done;
    Pmem.sfence t.pm (* fence #1 *)
  end
  else begin
    Pmem.flush_range t.pm b0 16;
    Pmem.sfence t.pm
  end;
  (* atomic switch of the head pointer: fence #2.  A crash on either side
     of it leaves a fully valid chain (old or new). *)
  publish_head t2 b0;
  (* only now is the old chain dead; recycle it *)
  List.iter (fun b -> Heap.free t.heap b) old_blocks;
  t.blocks <- t2.blocks;
  t.n_blocks <- t2.n_blocks;
  t.head_block <- t2.head_block;
  t.cur_block <- t2.cur_block;
  t.pos <- t2.pos;
  t.pend_a <- t2.pend_a;
  t.pend_b <- t2.pend_b;
  t.n_pend <- t2.n_pend;
  let stats =
    {
      records_scanned = !records;
      entries_scanned = !scanned;
      entries_live = live;
      blocks_freed = List.length old_blocks;
      blocks_allocated = t2.n_blocks;
    }
  in
  let open Specpmt_obs in
  Metrics.incr (Metrics.counter "log.compact.cycles");
  Metrics.add (Metrics.counter "log.compact.records_scanned") !records;
  Metrics.add (Metrics.counter "log.compact.entries_scanned") !scanned;
  Metrics.add (Metrics.counter "log.compact.entries_live") live;
  Metrics.add (Metrics.counter "log.compact.blocks_freed") stats.blocks_freed;
  Metrics.add (Metrics.counter "log.compact.blocks_allocated")
    stats.blocks_allocated;
  Trace.emit "arena.compact" ~a:stats.blocks_freed ~b:live;
  stats
