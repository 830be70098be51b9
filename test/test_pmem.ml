open Specpmt_pmem

let cfg = Config.small

let test_roundtrip () =
  let pm = Pmem.create cfg in
  Pmem.store_int pm 128 42;
  Alcotest.(check int) "volatile read" 42 (Pmem.load_int pm 128);
  Pmem.store_int pm 128 (-7);
  Alcotest.(check int) "overwrite" (-7) (Pmem.load_int pm 128)

let test_bytes_roundtrip () =
  let pm = Pmem.create cfg in
  let b = Bytes.of_string "hello, persistent world; spans lines for sure!!" in
  Pmem.store_bytes pm 60 b;
  (* 60 is mid-line, so this crosses a boundary *)
  Alcotest.(check string)
    "bytes roundtrip" (Bytes.to_string b)
    (Bytes.to_string (Pmem.load_bytes pm 60 (Bytes.length b)))

let test_unflushed_store_lost () =
  let pm = Pmem.create { cfg with crash_word_persist_prob = 0.0 } in
  Pmem.store_int pm 256 99;
  Pmem.crash pm;
  Alcotest.(check int) "lost without flush" 0 (Pmem.peek_media_int pm 256);
  Alcotest.(check int) "load sees media after crash" 0 (Pmem.load_int pm 256)

let test_flushed_store_survives () =
  let pm = Pmem.create { cfg with crash_word_persist_prob = 0.0 } in
  Pmem.store_int pm 256 99;
  Pmem.clwb pm 256;
  Pmem.sfence pm;
  Pmem.crash pm;
  Alcotest.(check int) "persisted" 99 (Pmem.peek_media_int pm 256)

let test_clwb_without_fence_still_persists () =
  (* ADR: acceptance by the write-pending queue is inside the persistence
     domain; the fence only contributes drain time *)
  let pm = Pmem.create { cfg with crash_word_persist_prob = 0.0 } in
  Pmem.store_int pm 512 7;
  Pmem.clwb pm 512;
  Pmem.crash pm;
  Alcotest.(check int) "in WPQ == persistent" 7 (Pmem.peek_media_int pm 512)

let test_dirty_words_coinflip_all () =
  let pm = Pmem.create { cfg with crash_word_persist_prob = 1.0 } in
  Pmem.store_int pm 64 1;
  Pmem.store_int pm 72 2;
  Pmem.crash pm;
  Alcotest.(check int) "word 0 leaked" 1 (Pmem.peek_media_int pm 64);
  Alcotest.(check int) "word 1 leaked" 2 (Pmem.peek_media_int pm 72)

let test_fuse () =
  let pm = Pmem.create cfg in
  Pmem.set_fuse pm (Some 3);
  Pmem.store_int pm 0 1;
  Pmem.store_int pm 8 2;
  Alcotest.check_raises "third event crashes" Pmem.Crash (fun () ->
      Pmem.store_int pm 16 3)

let test_fence_counted () =
  let pm = Pmem.create cfg in
  Pmem.store_int pm 0 1;
  Pmem.clwb pm 0;
  Pmem.sfence pm;
  let s = Pmem.stats pm in
  Alcotest.(check int) "one fence" 1 s.Stats.fences;
  Alcotest.(check int) "one clwb" 1 s.Stats.clwbs;
  Alcotest.(check int) "one media write" 1 s.Stats.pm_write_lines

let test_fence_costs_time () =
  let pm = Pmem.create cfg in
  Pmem.store_int pm 0 1;
  let before = (Pmem.stats pm).Stats.ns in
  Pmem.clwb pm 0;
  Pmem.sfence pm;
  let after = (Pmem.stats pm).Stats.ns in
  Alcotest.(check bool)
    "flush+fence costs at least a media write"
    true
    (after -. before >= cfg.Config.pm_write_ns)

let test_seq_writes_cheaper () =
  let run seq =
    let pm = Pmem.create cfg in
    let addr i = if seq then i * 64 else (i * 64 * 17) mod (1 lsl 18) in
    for i = 0 to 63 do
      Pmem.store_int pm (addr i) i;
      Pmem.clwb pm (addr i)
    done;
    Pmem.sfence pm;
    (Pmem.stats pm).Stats.ns
  in
  Alcotest.(check bool)
    "sequential flush stream is faster" true
    (run true < run false)

let test_capacity_eviction_persists () =
  let pm =
    Pmem.create
      { cfg with cache_capacity_lines = 8; crash_word_persist_prob = 0.0 }
  in
  (* dirty far more lines than the cache holds *)
  for i = 0 to 63 do
    Pmem.store_int pm (i * 64) (i + 1)
  done;
  let s = Pmem.stats pm in
  Alcotest.(check bool) "evictions happened" true (s.Stats.evictions > 0);
  (* an evicted line's content reached the media without any flush *)
  Alcotest.(check int) "evicted line persisted" 1 (Pmem.peek_media_int pm 0)

let test_eviction_cost_random () =
  (* regression: the victim's write-back cost used to be computed after
     the write-back had already advanced [last_persist_line] to the
     victim itself, so every capacity eviction billed the sequential
     rate no matter how scattered the victims were *)
  let pm =
    Pmem.create
      { cfg with cache_capacity_lines = 8; crash_word_persist_prob = 0.0 }
  in
  (* dirty lines at stride 2: no evicted line is ever adjacent to the
     previously persisted one, so every write-back is a random write *)
  for i = 0 to 63 do
    Pmem.store_int pm (i * 2 * 64) (i + 1)
  done;
  let s = Pmem.stats pm in
  let e = s.Stats.evictions in
  Alcotest.(check bool) "evictions happened" true (e > 0);
  Alcotest.(check (float 1e-6))
    "every eviction bills the random-write rate"
    (float_of_int e *. cfg.Config.pm_write_ns)
    s.Stats.bg_ns

let test_clflushopt_leaves_no_stale_fifo_entry () =
  (* regression: clflushopt used to leave the invalidated line's entry
     in the FIFO eviction queue; re-fetching the line then gave it two
     queue entries, and the stale one evicted the hot line out of turn *)
  let pm =
    Pmem.create
      { cfg with cache_capacity_lines = 8; crash_word_persist_prob = 0.0 }
  in
  for i = 0 to 7 do
    Pmem.store_int pm (i * 64) (i + 1)
  done;
  Pmem.clflushopt pm 0;
  (* re-fetch line 0: it must re-enter the FIFO as the newest resident *)
  Pmem.store_int pm 0 42;
  (* ninth resident line forces one eviction — of line 1, the oldest *)
  Pmem.store_int pm (8 * 64) 9;
  Alcotest.(check int) "one eviction" 1 (Pmem.stats pm).Stats.evictions;
  let r0 = (Pmem.stats pm).Stats.pm_read_lines in
  ignore (Pmem.load_int pm 0);
  Alcotest.(check int) "hot line 0 still resident" r0
    (Pmem.stats pm).Stats.pm_read_lines;
  ignore (Pmem.load_int pm 64);
  Alcotest.(check int) "line 1 was the victim" (r0 + 1)
    (Pmem.stats pm).Stats.pm_read_lines

let test_unmetered () =
  let pm = Pmem.create cfg in
  Pmem.with_unmetered pm (fun () ->
      Pmem.store_int pm 0 5;
      Pmem.clwb pm 0;
      Pmem.sfence pm);
  let s = Pmem.stats pm in
  Alcotest.(check int) "no stores counted" 0 s.Stats.stores;
  Alcotest.(check (float 0.0)) "no time counted" 0.0 s.Stats.ns;
  Alcotest.(check int) "state still changed" 5 (Pmem.peek_media_int pm 0)

let test_nt_store () =
  let pm = Pmem.create { cfg with crash_word_persist_prob = 0.0 } in
  (* leave unrelated dirty data in the same line; nt store must not lose it *)
  Pmem.store_int pm 1024 11;
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 77L;
  Pmem.nt_store_bytes pm 1032 b;
  Alcotest.(check int) "nt content persistent" 77 (Pmem.peek_media_int pm 1032);
  Alcotest.(check int) "merged dirty neighbour" 11 (Pmem.load_int pm 1024)

let test_clflushopt_invalidates () =
  let pm = Pmem.create { cfg with crash_word_persist_prob = 0.0 } in
  Pmem.store_int pm 128 7;
  Pmem.clflushopt pm 128;
  Pmem.crash pm;
  Alcotest.(check int) "persisted" 7 (Pmem.peek_media_int pm 128);
  (* the line was dropped: a load after the flush misses and charges a
     media read *)
  let pm2 = Pmem.create cfg in
  Pmem.store_int pm2 128 7;
  Pmem.clflushopt pm2 128;
  let r0 = (Pmem.stats pm2).Stats.pm_read_lines in
  ignore (Pmem.load_int pm2 128);
  Alcotest.(check int) "reload misses" (r0 + 1)
    (Pmem.stats pm2).Stats.pm_read_lines

let test_eadr_semantics () =
  (* with persistent caches, a plain store survives the crash and flushes
     cost nothing but their issue overhead *)
  let pm =
    Pmem.create { cfg with crash_word_persist_prob = 0.0; eadr = true }
  in
  Pmem.store_int pm 256 99;
  let t0 = (Pmem.stats pm).Stats.ns in
  Pmem.clwb pm 256;
  Pmem.sfence pm;
  let dt = (Pmem.stats pm).Stats.ns -. t0 in
  Alcotest.(check bool) "flush+fence nearly free" true (dt < 20.0);
  Pmem.crash pm;
  Alcotest.(check int) "unflushed store survives" 99
    (Pmem.peek_media_int pm 256)

let test_out_of_bounds () =
  let pm = Pmem.create cfg in
  Alcotest.check_raises "oob store"
    (Invalid_argument
       (Printf.sprintf "Pmem: address out of bounds: %d (+8)"
          cfg.Config.mem_size))
    (fun () -> Pmem.store_int pm cfg.Config.mem_size 1)

(* Property: with persist probability 0, media content equals exactly the
   model of "flushed or evicted" stores.  We avoid evictions by bounding
   addresses under the capacity. *)
(* Device budget: minor words one device call allocates — none.  The
   clocks (foreground, background and the WPQ's last completion) are one
   unboxed float array and the fuse is an int, so advancing time, moving
   a line between cache and media, or burning the fuse boxes nothing. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* minor words per call over the [calls] calls [f] makes, the
   measurement's own boxed floats taken off *)
let words_per_call ~calls f =
  let overhead = minor_words_of (fun () -> ()) in
  (minor_words_of f -. overhead) /. float_of_int calls

let within ~budget what words =
  if words > budget then
    Alcotest.failf "%s: %.2f minor words per call (budget %.0f)" what words
      budget

(* twice the cache's lines, cycled: FIFO eviction drops each line before
   its next use, so every access misses.  The measured loops make whole
   passes, so a pass never starts on lines the last one left cached. *)
let miss_lines = 2 * cfg.Config.cache_capacity_lines
let miss_addr i = 64 * (i mod miss_lines)
let budget_calls = 200 * miss_lines

let test_budget_load () =
  let pm = Pmem.create cfg in
  let hits () =
    for i = 0 to budget_calls - 1 do
      ignore (Pmem.load_int pm (8 * (i land 7)))
    done
  in
  hits ();
  within ~budget:0.0 "load_int, hit" (words_per_call ~calls:budget_calls hits);
  let misses () =
    for i = 0 to budget_calls - 1 do
      ignore (Pmem.load_int pm (miss_addr i))
    done
  in
  misses ();
  let r0 = (Pmem.stats pm).Stats.pm_read_lines in
  within ~budget:0.0 "load_int, miss"
    (words_per_call ~calls:budget_calls misses);
  Alcotest.(check int) "every load missed" budget_calls
    ((Pmem.stats pm).Stats.pm_read_lines - r0)

let test_budget_store () =
  let pm = Pmem.create cfg in
  let hits () =
    for i = 0 to budget_calls - 1 do
      Pmem.store_int pm (8 * (i land 7)) i
    done
  in
  hits ();
  within ~budget:0.0 "store_int, hit" (words_per_call ~calls:budget_calls hits);
  (* once the cache is full of dirty lines, every miss writes one back *)
  let misses () =
    for i = 0 to budget_calls - 1 do
      Pmem.store_int pm (miss_addr i) i
    done
  in
  misses ();
  let e0 = (Pmem.stats pm).Stats.evictions in
  within ~budget:0.0 "store_int, miss"
    (words_per_call ~calls:budget_calls misses);
  Alcotest.(check int) "every store evicted a dirty line" budget_calls
    ((Pmem.stats pm).Stats.evictions - e0)

let test_budget_clwb () =
  let pm = Pmem.create cfg in
  (* as many dirty lines as the WPQ holds, flushed from an empty queue:
     every flush is accepted without a stall *)
  let lines = cfg.Config.wpq_lines and rounds = 10_000 in
  let flush () =
    for i = 0 to lines - 1 do
      Pmem.clwb pm (64 * i)
    done
  in
  let words = ref 0.0 in
  for r = 1 to rounds do
    for i = 0 to lines - 1 do
      Pmem.store_int pm (64 * i) r
    done;
    Pmem.sfence pm;
    words := !words +. words_per_call ~calls:lines flush
  done;
  within ~budget:0.0 "clwb, dirty line" (!words /. float_of_int rounds);
  let clean () =
    for _ = 1 to budget_calls do
      Pmem.clwb pm 0
    done
  in
  within ~budget:0.0 "clwb, clean line"
    (words_per_call ~calls:budget_calls clean)

let test_budget_sfence () =
  let pm = Pmem.create cfg in
  let fences () =
    for _ = 1 to budget_calls do
      Pmem.sfence pm
    done
  in
  within ~budget:0.0 "sfence, empty WPQ"
    (words_per_call ~calls:budget_calls fences)

(* [rounds] rounds of: dirty the first [lines] lines, fence, then
   measure [f]; the mean of the per-call words *)
let dirty_rounds pm ~lines ~rounds ~calls f =
  let words = ref 0.0 in
  for r = 1 to rounds do
    for i = 0 to lines - 1 do
      Pmem.store_int pm (64 * i) r
    done;
    Pmem.sfence pm;
    words := !words +. words_per_call ~calls f
  done;
  !words /. float_of_int rounds

let test_budget_clflushopt () =
  let pm = Pmem.create cfg in
  let lines = cfg.Config.wpq_lines in
  (* each flush writes a dirty line back and drops it, so every store
     of the next round misses *)
  let flush () =
    for i = 0 to lines - 1 do
      Pmem.clflushopt pm (64 * i)
    done
  in
  within ~budget:0.0 "clflushopt, dirty line"
    (dirty_rounds pm ~lines ~rounds:10_000 ~calls:lines flush)

let test_budget_flush_range () =
  let pm = Pmem.create cfg in
  let lines = cfg.Config.wpq_lines in
  let flush () = Pmem.flush_range pm 0 (64 * lines) in
  within ~budget:0.0 "flush_range, dirty lines"
    (dirty_rounds pm ~lines ~rounds:10_000 ~calls:1 flush)

let test_budget_nt_store () =
  let pm = Pmem.create cfg in
  (* caller-owned, line-crossing: every call merges two uncached lines
     through the scratch line, and the queue stalls once full *)
  let buf = Bytes.make 64 'n' in
  let stores () =
    for i = 0 to budget_calls - 1 do
      Pmem.nt_store_bytes pm ((64 * (i land 31)) + 32) buf
    done
  in
  stores ();
  within ~budget:0.0 "nt_store_bytes, 64 bytes over two lines"
    (words_per_call ~calls:budget_calls stores)

(* ---------- device contract ----------

   What every entry point promises, whatever its hot path looks like:
   one fuse event per call; a rejected address raises [Invalid_argument]
   before any effect; an armed fuse crashes the k-th event and the
   crashing call moves nothing but [events]; unmetered calls move no
   counter and no clock. *)

let mem = cfg.Config.mem_size

(* every [Stats] field, the clocks by their bit patterns *)
let tally pm =
  let s = Pmem.stats pm in
  let i name v = (name, Int64.of_int v)
  and f name v = (name, Int64.bits_of_float v) in
  Stats.
    [
      i "loads" s.loads;
      i "stores" s.stores;
      i "clwbs" s.clwbs;
      i "fences" s.fences;
      i "nt_stores" s.nt_stores;
      i "pm_read_lines" s.pm_read_lines;
      i "pm_read_lines_seq" s.pm_read_lines_seq;
      i "pm_write_lines" s.pm_write_lines;
      i "pm_write_lines_seq" s.pm_write_lines_seq;
      i "evictions" s.evictions;
      f "ns" s.ns;
      f "bg_ns" s.bg_ns;
    ]

let tally_t = Alcotest.(list (pair string int64))

(* a device with dirty, clean and flushed lines and a non-empty WPQ, so
   that a call which wrongly acted would show *)
let warm () =
  let pm = Pmem.create cfg in
  for i = 0 to 31 do
    Pmem.store_int pm (64 * i) (i + 1)
  done;
  Pmem.clwb pm 0;
  Pmem.clwb pm 64;
  ignore (Pmem.load_int pm 8192);
  pm

(* each entry point at an address, and the extent it touches there *)
let entry_points =
  let buf = Bytes.make 16 'x' in
  [
    ("load_int", 8, fun pm a -> ignore (Pmem.load_int pm a));
    ("store_int", 8, fun pm a -> Pmem.store_int pm a 7);
    ("load_bytes", 16, fun pm a -> ignore (Pmem.load_bytes pm a 16));
    ("store_bytes", 16, fun pm a -> Pmem.store_bytes pm a buf);
    ("nt_store_bytes", 16, fun pm a -> Pmem.nt_store_bytes pm a buf);
    ("clwb", 1, fun pm a -> Pmem.clwb pm a);
    ("clflushopt", 1, fun pm a -> Pmem.clflushopt pm a);
    ("sfence", 0, fun pm _ -> Pmem.sfence pm);
  ]

(* a flushed line, a dirty one, two misses, the end of the image, and
   an offset that crosses a line for byte ranges (the last word of line
   0 for word calls) *)
let good_addrs extent =
  let last = mem - max extent 8 in
  [ 0; 128; 8192 + 64; 40_000; last; (if extent = 8 then 56 else 60) ]

let test_contract_one_event () =
  List.iter
    (fun (name, extent, call) ->
      let pm = warm () in
      List.iter
        (fun a ->
          let e = Pmem.events pm in
          call pm a;
          Alcotest.(check int)
            (Fmt.str "%s %d: one event" name a)
            (e + 1) (Pmem.events pm))
        (good_addrs extent))
    entry_points

(* [call] must raise [Invalid_argument] and leave [events], every
   counter, both clocks and the dirty lines as they were; the resident
   lines of [warm] must still hit *)
let rejected pm what call =
  let events = Pmem.events pm
  and before = tally pm
  and dirty = Pmem.dirty_lines pm in
  (match call () with
  | () -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
  Alcotest.(check int) (what ^ ": events") events (Pmem.events pm);
  Alcotest.check tally_t (what ^ ": stats") before (tally pm);
  Alcotest.(check (list int)) (what ^ ": dirty lines") dirty
    (Pmem.dirty_lines pm);
  let r = (Pmem.stats pm).Stats.pm_read_lines in
  ignore (Pmem.load_int pm (64 * 31));
  ignore (Pmem.load_int pm 8192);
  Alcotest.(check int) (what ^ ": cache kept") r
    (Pmem.stats pm).Stats.pm_read_lines

let test_contract_out_of_bounds () =
  List.iter
    (fun (name, extent, call) ->
      if extent > 0 then
        List.iter
          (fun a ->
            let pm = warm () in
            rejected pm (Fmt.str "%s %d" name a) (fun () -> call pm a))
          ([ -8; mem; mem + 64; max_int - 7; min_int ]
          @ if extent > 8 then [ mem - 8 ] else []))
    entry_points

let test_contract_misaligned () =
  List.iter
    (fun (name, extent, call) ->
      if extent = 8 then
        List.iter
          (fun a ->
            let pm = warm () in
            rejected pm (Fmt.str "%s %d" name a) (fun () -> call pm a))
          [ 4; 63; 8192 + 1; mem - 4 ])
    entry_points

(* a mixed sequence over every entry point: k-th event crashes, and the
   crashing call moves only [events] *)
let mixed_calls =
  List.concat_map
    (fun i ->
      List.map
        (fun (name, extent, call) ->
          let addrs = good_addrs extent in
          (name, call, List.nth addrs (i mod List.length addrs)))
        entry_points)
    [ 0; 1; 2; 3; 4; 5 ]

let test_contract_fuse () =
  let n = List.length mixed_calls in
  for k = 1 to n do
    let pm = warm () in
    let base = Pmem.events pm in
    Pmem.set_fuse pm (Some k);
    let crashed =
      List.fold_left
        (fun crashed (name, call, a) ->
          if crashed then true
          else begin
            let e = Pmem.events pm
            and before = tally pm
            and dirty = Pmem.dirty_lines pm in
            match call pm a with
            | () -> false
            | exception Pmem.Crash ->
                let what = Fmt.str "fuse %d, %s %d" k name a in
                Alcotest.(check int) (what ^ ": crashing event") k
                  (Pmem.events pm - base);
                Alcotest.(check int) (what ^ ": events") (e + 1)
                  (Pmem.events pm);
                Alcotest.check tally_t (what ^ ": stats") before (tally pm);
                Alcotest.(check (list int)) (what ^ ": dirty lines") dirty
                  (Pmem.dirty_lines pm);
                true
          end)
        false mixed_calls
    in
    if not crashed then Alcotest.failf "fuse %d of %d never burned" k n
  done

let test_contract_unmetered () =
  let pm = warm () in
  let before = tally pm in
  Pmem.with_unmetered pm (fun () ->
      List.iter
        (fun (name, call, a) ->
          let e = Pmem.events pm in
          call pm a;
          let what = Fmt.str "unmetered %s %d" name a in
          Alcotest.(check int) (what ^ ": one event") (e + 1) (Pmem.events pm);
          Alcotest.check tally_t (what ^ ": stats") before (tally pm))
        mixed_calls)

(* ---------- device model pinned ----------

   A seeded mix of about 290,000 calls per run over three times the
   cache's lines, with an sfence every ~16 calls, bursts of twelve
   dirty-line flushes between two fences (more than [wpq_lines], so the
   WPQ-full stall runs), sequential scans and unmetered stretches.  The
   run ends in a seeded [crash].  Every counter, both clocks (as bits),
   [events], a fold of every loaded value and a fold of the media words
   of the touched lines are pinned to the values the model gave before
   its access path was rewritten for host speed: a change to the hot
   path that moves any modelled number fails here. *)

let pinned_lines = 3 * cfg.Config.cache_capacity_lines

let pinned_run ~eadr =
  let pm = Pmem.create ~seed:7 { cfg with eadr } in
  let rng = Random.State.make [| 2024 |] in
  let loaded = ref 0 in
  let seen v = loaded := (!loaded * 31) + v in
  let bufs =
    Array.map
      (fun n -> Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)))
      [| 8; 24; 72 |]
  in
  let word () =
    (64 * Random.State.int rng pinned_lines) + (8 * Random.State.int rng 8)
  in
  let byte_addr n = Random.State.int rng ((64 * pinned_lines) - n) in
  let rec step ~unmetered =
    match Random.State.int rng 100 with
    | r when r < 38 -> seen (Pmem.load_int pm (word ()))
    | r when r < 62 -> Pmem.store_int pm (word ()) (Random.State.bits rng)
    | r when r < 72 -> Pmem.clwb pm (word ())
    | r when r < 77 -> Pmem.clflushopt pm (word ())
    | r when r < 82 ->
        let b = bufs.(Random.State.int rng 3) in
        Pmem.nt_store_bytes pm (byte_addr (Bytes.length b)) b
    | r when r < 87 ->
        let b = bufs.(Random.State.int rng 3) in
        Pmem.store_bytes pm (byte_addr (Bytes.length b)) b
    | r when r < 92 ->
        let n = 1 + Random.State.int rng 100 in
        Bytes.iter (fun c -> seen (Char.code c))
          (Pmem.load_bytes pm (byte_addr n) n)
    | r when r < 95 ->
        (* dirty-line flushes past the WPQ's capacity, sequential *)
        let l = Random.State.int rng (pinned_lines - 12) in
        for i = l to l + 11 do
          Pmem.store_int pm (64 * i) i;
          Pmem.clwb pm (64 * i)
        done
    | r when r < 98 ->
        let l = Random.State.int rng (pinned_lines - 12) in
        for i = l to l + 11 do
          seen (Pmem.load_int pm ((64 * i) + 8))
        done
    | _ when unmetered -> Pmem.sfence pm
    | _ ->
        Pmem.with_unmetered pm (fun () ->
            for _ = 1 to 20 do
              step ~unmetered:true
            done)
  in
  for _ = 1 to 100_000 do
    step ~unmetered:false;
    if Random.State.int rng 16 = 0 then Pmem.sfence pm
  done;
  let stats = tally pm and events = Pmem.events pm in
  Pmem.crash pm;
  let media = ref 0 in
  for w = 0 to (8 * pinned_lines) - 1 do
    media := (!media * 31) + Pmem.peek_media_int pm (8 * w)
  done;
  (stats, events, !loaded, !media)

let check_pinned ~eadr ~stats ~events ~loaded ~media () =
  let s, e, l, m = pinned_run ~eadr in
  Alcotest.check tally_t "stats" stats s;
  Alcotest.(check int) "events" events e;
  Alcotest.(check int) "loaded values" loaded l;
  Alcotest.(check int) "media after crash" media m;
  let field f = List.assoc f s in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " reached") true (field f > 0L))
    ((if eadr then [] else [ "pm_write_lines_seq" ])
    @ [ "evictions"; "pm_read_lines_seq" ])

(* taken from a run of the model as it stood before its access path was
   rewritten (one prologue per call, a one-lookup hit path) *)
let test_pinned_adr =
  check_pinned ~eadr:false
    ~stats:
      [
        ("loads", 80013L);
        ("stores", 65824L);
        ("clwbs", 51485L);
        ("fences", 6295L);
        ("nt_stores", 4973L);
        ("pm_read_lines", 56039L);
        ("pm_read_lines_seq", 20150L);
        ("pm_write_lines", 70416L);
        ("pm_write_lines_seq", 31658L);
        ("evictions", 25034L);
        ("ns", 4713475949310509056L);
        ("bg_ns", 4712727576492113920L);
      ]
    ~events:288578 ~loaded:(-2865930195385671244) ~media:911692945719398156

let test_pinned_eadr =
  check_pinned ~eadr:true
    ~stats:
      [
        ("loads", 80013L);
        ("stores", 70797L);
        ("clwbs", 51485L);
        ("fences", 6295L);
        ("nt_stores", 0L);
        ("pm_read_lines", 55924L);
        ("pm_read_lines_seq", 20081L);
        ("pm_write_lines", 61455L);
        ("pm_write_lines_seq", 21895L);
        ("evictions", 61455L);
        ("ns", 4707946752831913984L);
        ("bg_ns", 4716662602980130816L);
      ]
    ~events:288578 ~loaded:(-3363668225286029614)
    ~media:(-4180051933371510069)

let prop_flush_semantics =
  QCheck.Test.make ~name:"media = flushed stores" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (pair (int_bound 100) (pair (int_bound 1000) bool)))
    (fun ops ->
      let pm =
        Pmem.create { cfg with crash_word_persist_prob = 0.0 }
      in
      let model = Hashtbl.create 16 in
      let flushed = Hashtbl.create 16 in
      List.iter
        (fun (cell, (v, flush)) ->
          let a = cell * 8 in
          Pmem.store_int pm a v;
          Hashtbl.replace model a v;
          if flush then begin
            (* flushing the line persists every word of it *)
            let line = Addr.line_of a in
            Pmem.clwb pm a;
            Hashtbl.iter
              (fun a' v' ->
                if Addr.line_of a' = line then Hashtbl.replace flushed a' v')
              model
          end)
        ops;
      Pmem.sfence pm;
      Pmem.crash pm;
      Hashtbl.fold
        (fun a v acc -> acc && Pmem.peek_media_int pm a = v)
        flushed true)

let () =
  Alcotest.run "pmem"
    [
      ( "basics",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed store lost" `Quick
            test_unflushed_store_lost;
          Alcotest.test_case "flushed store survives" `Quick
            test_flushed_store_survives;
          Alcotest.test_case "clwb w/o fence persists (ADR)" `Quick
            test_clwb_without_fence_still_persists;
          Alcotest.test_case "dirty words can leak" `Quick
            test_dirty_words_coinflip_all;
          Alcotest.test_case "capacity eviction persists" `Quick
            test_capacity_eviction_persists;
          Alcotest.test_case "random evictions bill random-write rate" `Quick
            test_eviction_cost_random;
          Alcotest.test_case "clflushopt leaves no stale FIFO entry" `Quick
            test_clflushopt_leaves_no_stale_fifo_entry;
          Alcotest.test_case "nt store" `Quick test_nt_store;
          Alcotest.test_case "clflushopt invalidates" `Quick
            test_clflushopt_invalidates;
          Alcotest.test_case "eADR semantics" `Quick test_eadr_semantics;
          QCheck_alcotest.to_alcotest prop_flush_semantics;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "fence counted" `Quick test_fence_counted;
          Alcotest.test_case "fence costs time" `Quick test_fence_costs_time;
          Alcotest.test_case "sequential cheaper" `Quick
            test_seq_writes_cheaper;
          Alcotest.test_case "unmetered" `Quick test_unmetered;
        ] );
      ( "crash injection",
        [ Alcotest.test_case "fuse" `Quick test_fuse ] );
      ( "device budget",
        [
          Alcotest.test_case "Pmem.load_int 0 words, hit or miss" `Quick
            test_budget_load;
          Alcotest.test_case "Pmem.store_int 0 words, hit or miss" `Quick
            test_budget_store;
          Alcotest.test_case "Pmem.clwb 0 words, dirty or clean line"
            `Quick test_budget_clwb;
          Alcotest.test_case "Pmem.sfence 0 words" `Quick test_budget_sfence;
          Alcotest.test_case "Pmem.clflushopt 0 words, dirty line" `Quick
            test_budget_clflushopt;
          Alcotest.test_case "Pmem.flush_range 0 words, dirty lines" `Quick
            test_budget_flush_range;
          Alcotest.test_case "Pmem.nt_store_bytes 0 words, caller's buffer"
            `Quick test_budget_nt_store;
        ] );
      ( "device contract",
        [
          Alcotest.test_case "every call is one event" `Quick
            test_contract_one_event;
          Alcotest.test_case "out of bounds: rejected before any effect"
            `Quick test_contract_out_of_bounds;
          Alcotest.test_case "misaligned word: rejected before any effect"
            `Quick test_contract_misaligned;
          Alcotest.test_case "fuse: k-th event crashes, moves only events"
            `Quick test_contract_fuse;
          Alcotest.test_case "unmetered: events move, counters do not"
            `Quick test_contract_unmetered;
        ] );
      ( "device model pinned",
        [
          Alcotest.test_case "ADR mix, then crash" `Quick test_pinned_adr;
          Alcotest.test_case "eADR mix, then crash" `Quick test_pinned_eadr;
        ] );
    ]
