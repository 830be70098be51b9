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
        ] );
    ]
