open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

let mk ?(crash_prob = 0.0) () =
  let pm =
    Pmem.create { Config.small with crash_word_persist_prob = crash_prob }
  in
  (pm, Heap.create pm)

let head_slot = 20
let bb = 512 (* small blocks so chaining is exercised constantly *)

let mk_arena () =
  let pm, heap = mk () in
  (pm, heap, Log_arena.create heap ~head_slot ~block_bytes:bb)

(* checksum *)

let test_crc_known () =
  (* CRC-32C("123456789") = 0xE3069283, a standard test vector *)
  Alcotest.(check int)
    "crc32c vector" 0xE3069283
    (Checksum.crc32c (Bytes.of_string "123456789"))

(* the incremental per-word fold (the commit hot path) must agree with
   the list-based [words] oracle, including sign-extended negatives *)
let test_crc_word_fold_oracle () =
  let fold ws = List.fold_left Checksum.crc32c_word 0 ws in
  Alcotest.(check int) "empty fold = words []" (Checksum.words []) (fold []);
  List.iter
    (fun ws ->
      Alcotest.(check int)
        (Fmt.str "fold = words %a" Fmt.(Dump.list int) ws)
        (Checksum.words ws) (fold ws))
    [
      [ 0 ];
      [ 1; 2; 3 ];
      [ -1 ];
      [ -2; -1; 0; 1 ];
      [ min_int; max_int ];
      [ 0x1234_5678_9ABC; -0x7777; 42 ];
    ]

let prop_crc_word_fold_oracle =
  QCheck.Test.make ~name:"crc32c_word fold equals words" ~count:300
    QCheck.(list_of_size Gen.(0 -- 12) int)
    (fun ws ->
      List.fold_left Checksum.crc32c_word 0 ws = Checksum.words ws)

(* the two-word fold is two one-word folds, negative words (the
   marker and page tags) included *)
let prop_crc_pair =
  QCheck.Test.make ~name:"crc32c_pair equals two crc32c_word" ~count:500
    QCheck.(
      let word = oneof [ int; neg_int; oneofl [ -1; -2; min_int; max_int ] ] in
      triple (int_bound 0xFFFFFFFF) word word)
    (fun (c, a, b) ->
      Checksum.crc32c_pair c a b
      = Checksum.crc32c_word (Checksum.crc32c_word c a) b)

(* the three-word fold of a hash-log slot and a hardware undo entry *)
let prop_crc_triple =
  QCheck.Test.make ~name:"pair-then-word fold equals words of three"
    ~count:500
    QCheck.(
      let word = oneof [ int; neg_int; oneofl [ -1; -2; min_int; max_int ] ] in
      triple word word word)
    (fun (a, b, c) ->
      Checksum.crc32c_word (Checksum.crc32c_pair 0 a b) c
      = Checksum.words [ a; b; c ])

let prop_crc_detects_flip =
  QCheck.Test.make ~name:"crc detects single-word corruption" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 10) (int_bound 10000)) small_nat)
    (fun (ws, i) ->
      QCheck.assume (ws <> []);
      let i = i mod List.length ws in
      let ws' = List.mapi (fun j w -> if j = i then w + 1 else w) ws in
      Checksum.words ws <> Checksum.words ws')

(* write set: [Lww.bind], the first-write entry point *)

module Lww = Log_arena.Lww

(* the cell's [(value, ts)], if bound *)
let lww_find t a =
  let p = Lww.pos t a in
  if p < 0 then None else Some (Lww.value t p, Lww.ts t p)

(* [bind]'s position, and whether that was the cell's first write *)
let bind t a ~value ~ts =
  let n = Lww.length t in
  let p = Lww.bind t a ~value ~ts in
  (p, p = n)

let test_write_set_first_and_order () =
  let ws = Lww.create () in
  let p1, f1 = bind ws 8 ~value:10 ~ts:(-1) in
  let _, f2 = bind ws 16 ~value:20 ~ts:(-1) in
  let p3, f3 = bind ws 8 ~value:999 ~ts:(-1) in
  Alcotest.(check bool) "first" true f1;
  Alcotest.(check bool) "second addr first" true f2;
  Alcotest.(check bool) "repeat not first" false f3;
  Alcotest.(check int) "same position" p1 p3;
  Alcotest.(check int) "old value kept from first write" 10 (Lww.value ws p3);
  let order = ref [] in
  Lww.iter ws (fun a ~value:_ ~ts:_ -> order := a :: !order);
  Alcotest.(check (list int)) "oldest first" [ 16; 8 ] !order

(* Probe-colliding cells.  The table homes cell index x = addr / 8 on
   bits 32 and up of the wrapped product x * C, masked to the probe
   table's size, so cells whose products agree in bits 32-51 share a
   home slot in every probe table of up to 2^20 slots.  C is odd, hence
   invertible: the j-th cell of the class whose bits 32-51 read
   [residue] is x = j + k * 2^32, with k solving
   (bits 32-51 of j * C) + k * C = residue (mod 2^20).  The class of
   residue [tail] homes on each table's last slot, so its chains wrap
   past the end into the class of residue 0. *)
let collide_bits = 20
let lww_mult = 0x1E3779B97F4A7C15

let lww_inverse =
  (* Newton's iteration doubles the bits of an odd number's inverse *)
  let rec go i x = if i = 0 then x else go (i - 1) (x * (2 - (lww_mult * x))) in
  go 5 lww_mult

let tail = (1 lsl collide_bits) - 1

let colliding ~residue j =
  let m = (1 lsl collide_bits) - 1 in
  let k = (residue - ((j * lww_mult) lsr 32)) * lww_inverse land m in
  8 * (j + (k lsl 32))

(* the classes do collide: every member homes where member 0 does, in
   every probe table from 2^7 slots (a fresh table) to 2^20 *)
let check_colliding_classes () =
  Alcotest.(check int) "inverse" 1 (lww_mult * lww_inverse);
  List.iter
    (fun residue ->
      for bits = 7 to collide_bits do
        let home a = ((a lsr 3) * lww_mult) lsr 32 land ((1 lsl bits) - 1) in
        let h0 = home (colliding ~residue 0) in
        if h0 <> residue land ((1 lsl bits) - 1) then
          Alcotest.failf "residue %d homes on %d in 2^%d slots" residue h0 bits;
        for j = 1 to 600 do
          if home (colliding ~residue j) <> h0 then
            Alcotest.failf "cell %d of residue %d leaves its class" j residue
        done
      done)
    [ 0; tail ]

(* One transaction big enough to grow the table several times (> 65,536
   distinct cells: 64 -> 131,072 cell capacity), with two 512-long
   colliding chains that wrap, in a seeded order. *)
let big_tx_cells seed =
  let cells =
    Array.concat
      [
        Array.init 512 (colliding ~residue:tail);
        Array.init 512 (colliding ~residue:0);
        Array.init 70_000 (fun x -> 8 * x);
      ]
  in
  let rand = Random.State.make [| seed |] in
  for i = Array.length cells - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let c = cells.(i) in
    cells.(i) <- cells.(j);
    cells.(j) <- c
  done;
  cells

let ws_cells ws =
  let l = ref [] in
  Lww.iter ws (fun a ~value ~ts -> l := (a, value, ts) :: !l);
  List.rev !l

let test_write_set_clear_after_big () =
  check_colliding_classes ();
  let ws = Lww.create () in
  let big = big_tx_cells 1 in
  Array.iter (fun a -> ignore (Lww.bind ws a ~value:a ~ts:(-1))) big;
  (* address 0 is both in the residue-0 chain and in the dense range *)
  Alcotest.(check int) "big tx cells" (70_000 + 1023) (Lww.length ws);
  Lww.clear ws;
  Alcotest.(check int) "cleared" 0 (Lww.length ws);
  Array.iter
    (fun a ->
      if Lww.pos ws a >= 0 then
        Alcotest.failf "cell %d still indexed after clear" a)
    big;
  (* a tiny transaction over old and new cells: each is a first write and
     iteration yields only these *)
  let tiny =
    [ colliding ~residue:tail 3; 8 * 70_001; big.(0);
      colliding ~residue:0 511; colliding ~residue:tail 600 ]
  in
  List.iteri
    (fun i a ->
      let _, first = bind ws a ~value:i ~ts:(-1) in
      if not first then Alcotest.failf "cell %d not a first write" a)
    tiny;
  Alcotest.(check (list (triple int int int)))
    "only the new cells, oldest first, entries not yet placed"
    (List.mapi (fun i a -> (a, i, -1)) tiny)
    (ws_cells ws);
  let newest = ref [] in
  Lww.iter_newest_first ws (fun a ~value:_ ~ts:_ -> newest := a :: !newest);
  Alcotest.(check (list int)) "newest first" tiny !newest

(* A table goes back to its initial size after a transaction that left
   it oversized: after one 65,536-cell transaction and one one-cell
   transaction it is within 2x a fresh table's footprint. *)
let test_write_set_shrinks_back () =
  let words ws = Obj.reachable_words (Obj.repr ws) in
  let fresh = words (Lww.create ()) in
  let ws = Lww.create () in
  for x = 0 to 65_535 do
    ignore (Lww.bind ws (8 * x) ~value:x ~ts:0)
  done;
  Lww.clear ws;
  ignore (Lww.bind ws 8 ~value:1 ~ts:0);
  Lww.clear ws;
  if words ws > 2 * fresh then
    Alcotest.failf "%d words reachable after the big transaction, fresh %d"
      (words ws) fresh;
  let _, first = bind ws 8 ~value:2 ~ts:0 in
  Alcotest.(check bool) "first write after the shrink" true first;
  Alcotest.(check int) "one cell" 1 (Lww.length ws)

(* Differential test against a Hashtbl model: tiny transactions around
   one > 65,536-cell transaction, addresses from colliding classes that
   the big transaction also filled. *)
type ws_op =
  | Rec of int * int
  | Find of int
  | In_order
  | Newest_first
  | Clear
  | Big of int  (** record every [big_tx_cells seed] cell *)

let pp_ws_op = function
  | Rec (a, v) -> Printf.sprintf "Rec(%d,%d)" a v
  | Find a -> Printf.sprintf "Find %d" a
  | In_order -> "In_order"
  | Newest_first -> "Newest_first"
  | Clear -> "Clear"
  | Big s -> Printf.sprintf "Big %d" s

let ws_ops_arb =
  let open QCheck.Gen in
  let addr =
    int_bound 63 >>= fun j ->
    oneof
      [
        return (colliding ~residue:tail j);
        return (colliding ~residue:0 j);
        map (fun x -> 8 * x) (int_bound 4095);
      ]
  in
  let tiny =
    frequency
      [
        (6, map2 (fun a v -> Rec (a, v)) addr (int_bound 1_000_000));
        (3, map (fun a -> Find a) addr);
        (1, return In_order);
        (1, return Newest_first);
        (2, return Clear);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_ws_op ops))
    (map3
       (fun pre seed post -> pre @ (Big seed :: post))
       (list_size (0 -- 30) tiny) nat
       (list_size (0 -- 150) tiny))

let prop_write_set_model =
  QCheck.Test.make ~name:"write set = Hashtbl model across a big tx"
    ~count:20 ws_ops_arb (fun ops ->
      let ws = Lww.create () in
      (* addr -> (undo image, entry position); [order] is newest first.
         The entry position is the cell's second int, which the model
         overwrites with [v + 1] on every record, as SpecSPMT does. *)
      let model = Hashtbl.create 64 and order = ref [] in
      let record a v =
        let p, first = bind ws a ~value:v ~ts:(-1) in
        (match Hashtbl.find_opt model a with
        | None ->
            if not first then
              QCheck.Test.fail_reportf "%d: repeat reported for a new cell" a;
            order := a :: !order
        | Some (old, _) ->
            if first then
              QCheck.Test.fail_reportf "%d: first write reported twice" a;
            if Lww.value ws p <> old then
              QCheck.Test.fail_reportf "%d: undo image overwritten" a);
        let old = if first then v else Lww.value ws p in
        Lww.set_ts ws p (v + 1);
        Hashtbl.replace model a (old, v + 1)
      in
      let expect () =
        List.rev_map
          (fun a ->
            let old, last = Hashtbl.find model a in
            (a, old, last))
          !order
      in
      List.iter
        (fun op ->
          (match op with
          | Rec (a, v) -> record a v
          | Big seed -> Array.iter (fun a -> record a a) (big_tx_cells seed)
          | Find a ->
              if lww_find ws a <> Hashtbl.find_opt model a then
                QCheck.Test.fail_reportf "find %d disagrees with the model" a
          | In_order ->
              if ws_cells ws <> expect () then
                QCheck.Test.fail_report "iter disagrees"
          | Newest_first ->
              let l = ref [] in
              Lww.iter_newest_first ws (fun a ~value ~ts ->
                  l := (a, value, ts) :: !l);
              if !l <> expect () then
                QCheck.Test.fail_report "iter_newest_first disagrees"
          | Clear ->
              Lww.clear ws;
              Hashtbl.reset model;
              order := []);
          if Lww.length ws <> Hashtbl.length model then
            QCheck.Test.fail_reportf "length %d, model %d" (Lww.length ws)
              (Hashtbl.length model))
        ops;
      true)

(* History independence: a reset must not pay for the largest table
   the runtime has seen.  10,000 one-cell add+clear cycles after a
   65,536-cell fill must cost under 8x the same loop on a fresh table.
   A ratio of CPU times, best of interleaved rounds, so it holds on a
   slow or busy host.  The first one-cell clear after the fill shrinks
   the table back to its initial size, so the loop then runs on a
   fresh-sized table. *)
let test_lww_reset_history_independent () =
  let cycles t =
    let t0 = Sys.time () in
    for i = 1 to 10_000 do
      Lww.add t 8 ~value:i ~ts:0;
      Lww.clear t
    done;
    Sys.time () -. t0
  in
  let fresh = Lww.create () and used = Lww.create () in
  for x = 0 to 65_535 do
    Lww.add used (8 * x) ~value:0 ~ts:0
  done;
  Lww.clear used;
  let best_fresh = ref infinity and best_used = ref infinity in
  for _ = 1 to 7 do
    best_fresh := Float.min !best_fresh (cycles fresh);
    best_used := Float.min !best_used (cycles used)
  done;
  let ratio = !best_used /. Float.max !best_fresh 1e-6 in
  if ratio >= 8.0 then
    Alcotest.failf
      "10k one-cell resets cost %.1fx more after a 65,536-cell table (%.0f \
       vs %.0f us)"
      ratio (!best_used *. 1e6) (!best_fresh *. 1e6)

(* log arena *)

(* a scanned record's entries, copied out of the scan buffer *)
let entries addrs vals n = List.init n (fun i -> (addrs.(i), vals.(i)))

let scan_all pm =
  let recs = ref [] in
  let _ =
    Log_arena.recover_scan pm ~head_slot ~block_bytes:bb
      ~f:(fun ~ts addrs vals n -> recs := (ts, entries addrs vals n) :: !recs)
  in
  List.rev !recs

(* the tail a recovery scan of the test log ends at, for [attach] *)
let tail_of pm =
  snd
    (Log_arena.recover_scan pm ~head_slot ~block_bytes:bb
       ~f:(fun ~ts:_ _ _ _ -> ()))

let test_arena_commit_and_scan () =
  let pm, _, a = mk_arena () in
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:1000 ~value:1);
  ignore (Log_arena.add_entry a ~target:1008 ~value:2);
  Log_arena.commit_record a ~timestamp:5;
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:1000 ~value:3);
  Log_arena.commit_record a ~timestamp:6;
  Pmem.crash pm;
  Alcotest.(check (list (pair int (list (pair int int)))))
    "both records survive, in order"
    [ (5, [ (1000, 1); (1008, 2) ]); (6, [ (1000, 3) ]) ]
    (scan_all pm)

let test_arena_torn_record_dropped () =
  let pm, _, a = mk_arena () in
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:1000 ~value:1);
  Log_arena.commit_record a ~timestamp:5;
  (* second record never committed: no checksum, never flushed *)
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:2000 ~value:99);
  Pmem.crash pm;
  Alcotest.(check (list (pair int (list (pair int int)))))
    "only the committed record"
    [ (5, [ (1000, 1) ]) ]
    (scan_all pm)

let test_arena_torn_record_dropped_even_if_leaked () =
  (* same, but every dirty word leaks to the media: the missing checksum
     is computed over garbage metadata and still fails *)
  let pm =
    Pmem.create { Config.small with crash_word_persist_prob = 1.0 }
  in
  let heap = Heap.create pm in
  let a = Log_arena.create heap ~head_slot ~block_bytes:bb in
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:1000 ~value:1);
  Log_arena.commit_record a ~timestamp:5;
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:2000 ~value:99);
  Pmem.crash pm;
  Alcotest.(check (list (pair int (list (pair int int)))))
    "uncommitted record dropped"
    [ (5, [ (1000, 1) ]) ]
    (scan_all pm)

let test_arena_record_spans_blocks () =
  let pm, _, a = mk_arena () in
  Log_arena.begin_record a;
  (* 512-byte blocks hold ~30 entries; write 200 to span several blocks *)
  for i = 0 to 199 do
    ignore (Log_arena.add_entry a ~target:(8 * (i + 1)) ~value:i)
  done;
  Log_arena.commit_record a ~timestamp:9;
  Alcotest.(check bool) "chained" true (Log_arena.block_count a > 1);
  Pmem.crash pm;
  match scan_all pm with
  | [ (9, entries) ] ->
      Alcotest.(check int) "all entries back" 200 (List.length entries);
      Alcotest.(check (pair int int)) "last entry" (8 * 200, 199)
        (List.nth entries 199)
  | other ->
      Alcotest.failf "expected one record, got %d" (List.length other)

let test_arena_freshen_entry () =
  let pm, _, a = mk_arena () in
  Log_arena.begin_record a;
  let pos = Log_arena.add_entry a ~target:1000 ~value:1 in
  Log_arena.set_entry_value a pos 42;
  Log_arena.commit_record a ~timestamp:2;
  Pmem.crash pm;
  Alcotest.(check (list (pair int (list (pair int int)))))
    "freshened value logged"
    [ (2, [ (1000, 42) ]) ]
    (scan_all pm)

let fill_arena a n_records =
  for r = 0 to n_records - 1 do
    Log_arena.begin_record a;
    for i = 0 to 9 do
      ignore (Log_arena.add_entry a ~target:(8 * ((i mod 4) + 1)) ~value:((r * 10) + i))
    done;
    Log_arena.commit_record a ~timestamp:(r + 1)
  done

let test_arena_compact_keeps_freshest () =
  let pm, _, a = mk_arena () in
  fill_arena a 20;
  let before = Log_arena.footprint a in
  let st = Log_arena.compact a in
  Alcotest.(check bool) "footprint shrank" true (Log_arena.footprint a < before);
  Alcotest.(check int) "4 live cells" 4 st.Log_arena.entries_live;
  Alcotest.(check bool) "blocks freed" true (st.Log_arena.blocks_freed > 0);
  Pmem.crash pm;
  (* replaying the compacted log must give the freshest values *)
  let final = Hashtbl.create 8 in
  List.iter
    (fun (_, es) -> List.iter (fun (t, v) -> Hashtbl.replace final t v) es)
    (scan_all pm);
  (* freshest values after record 20 (r=19): the last i hitting each cell
     is 8, 9, 6, 7 respectively *)
  List.iter2
    (fun cell expected ->
      Alcotest.(check int)
        (Printf.sprintf "cell %d" cell)
        expected
        (Hashtbl.find final cell))
    [ 8; 16; 24; 32 ] [ 198; 199; 196; 197 ]

let test_arena_append_after_compact () =
  let pm, _, a = mk_arena () in
  fill_arena a 8;
  ignore (Log_arena.compact a);
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:4096 ~value:777);
  Log_arena.commit_record a ~timestamp:100;
  Pmem.crash pm;
  let recs = scan_all pm in
  Alcotest.(check bool) "compacted + new record" true (List.length recs = 2);
  let _, last = List.nth recs 1 in
  Alcotest.(check (list (pair int int))) "new record intact" [ (4096, 777) ] last

let test_arena_attach_resumes () =
  let pm, heap, a = mk_arena () in
  fill_arena a 3;
  (* simulated restart without crash: reattach and keep appending *)
  let a2 = Log_arena.attach heap ~tail:(tail_of pm) in
  Log_arena.begin_record a2;
  ignore (Log_arena.add_entry a2 ~target:8192 ~value:1);
  Log_arena.commit_record a2 ~timestamp:50;
  Pmem.crash pm;
  Alcotest.(check int) "all four records" 4 (List.length (scan_all pm))

let test_compact_is_crash_atomic () =
  (* crash at every event during a compaction: a scan must always see
     either the old chain or the new one — never garbage *)
  let run fuse =
    let pm =
      Pmem.create { Config.small with crash_word_persist_prob = 0.5 }
    in
    let heap = Heap.create pm in
    let a = Log_arena.create heap ~head_slot ~block_bytes:bb in
    fill_arena a 10;
    let final = Hashtbl.create 8 in
    List.iter
      (fun (_, es) -> List.iter (fun (t, v) -> Hashtbl.replace final t v) es)
      (scan_all pm);
    Pmem.set_fuse pm (Some fuse);
    let crashed =
      try
        ignore (Log_arena.compact a);
        false
      with Pmem.Crash -> true
    in
    Pmem.crash pm;
    let after = Hashtbl.create 8 in
    List.iter
      (fun (_, es) -> List.iter (fun (t, v) -> Hashtbl.replace after t v) es)
      (scan_all pm);
    Hashtbl.iter
      (fun cell v ->
        Alcotest.(check int)
          (Printf.sprintf "fuse %d cell %d" fuse cell)
          v
          (try Hashtbl.find after cell with Not_found -> -1))
      final;
    crashed
  in
  let fuse = ref 1 in
  while run !fuse do
    incr fuse
  done;
  Alcotest.(check bool) "eventually completes" true (!fuse > 1)

(* compaction must keep one record per surviving timestamp, ascending —
   restamping every survivor with the newest timestamp would reorder
   entries against other threads' logs when recovery replays all logs in
   global timestamp order (Section 5.2.2) *)
let test_compact_preserves_timestamps () =
  let pm, _, a = mk_arena () in
  (* ts 1 holds several cells, written out of address order; within a
     compacted record the survivors come out in ascending address order,
     whatever the order they were written or hashed in *)
  Log_arena.begin_record a;
  List.iter
    (fun c -> ignore (Log_arena.add_entry a ~target:c ~value:(c + 1)))
    [ 40; 16; 48; 8; 32; 24 ];
  Log_arena.commit_record a ~timestamp:1;
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:8 ~value:2);
  Log_arena.commit_record a ~timestamp:2;
  ignore (Log_arena.compact a);
  Alcotest.(check (list (pair int (list (pair int int)))))
    "one record per surviving timestamp, ascending, cells ascending"
    [
      (1, [ (16, 17); (24, 25); (32, 33); (40, 41); (48, 49) ]);
      (2, [ (8, 2) ]);
    ]
    (scan_all pm)

(* Compaction's linear-time order against a comparison sort by
   (timestamp, address), ties in index order, on random
   tables over narrow and wide key ranges, tables whose timestamps are
   all equal, and tables of 0-2 entries. *)
let test_compaction_order_differential () =
  let rng = Random.State.make [| 23 |] in
  let check ?(tmp_words = fun n -> (2 * n) + 3) what ~ts ~addr =
    let n = Array.length ts in
    let expect = Array.init n Fun.id in
    Array.stable_sort
      (fun i j ->
        let c = Int.compare ts.(i) ts.(j) in
        if c <> 0 then c else Int.compare addr.(i) addr.(j))
      expect;
    let got =
      Log_arena.ts_addr_order ~n ~ts ~addr ~tmp:(Array.make (tmp_words n) (-1))
    in
    if got <> expect then Alcotest.failf "%s (n = %d): orders differ" what n
  in
  let table n ~ts_range ~addr_range =
    ( Array.init n (fun _ -> 1 + Random.State.full_int rng ts_range),
      Array.init n (fun _ -> 8 * Random.State.int rng addr_range) )
  in
  for n = 0 to 2 do
    for _ = 1 to 20 do
      let ts, addr = table n ~ts_range:3 ~addr_range:4 in
      check "tiny" ~ts ~addr
    done
  done;
  List.iter
    (fun (ts_range, addr_range) ->
      for _ = 1 to 5 do
        let n = Random.State.int rng 5_000 in
        let ts, addr = table n ~ts_range ~addr_range in
        check "random" ~ts ~addr;
        (* the shortest temporary: 1-bit digits, one pass per key bit *)
        check "random, tight temporary" ~tmp_words:(fun n -> n + 3) ~ts ~addr;
        check "equal timestamps" ~ts:(Array.make n 7) ~addr
      done)
    [
      (5, 1 lsl 8);
      (100_000, 1 lsl 23);
      (1 lsl 40, 1 lsl 23);
      (1 lsl 20, 64);
      (* offsets wider than the bits the index leaves: sorted in slices *)
      (1 lsl 61, 1 lsl 23);
    ]

(* coalescing scan *)

let test_recover_collect_last_writer_wins () =
  let pm, _, a = mk_arena () in
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:8 ~value:1);
  ignore (Log_arena.add_entry a ~target:16 ~value:10);
  Log_arena.commit_record a ~timestamp:1;
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:8 ~value:2);
  Log_arena.commit_record a ~timestamp:2;
  (* torn tail: must not reach the index *)
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:16 ~value:666);
  Pmem.crash pm;
  let index, max_ts, records, entries, _ =
    Log_arena.recover_collect pm ~head_slot ~block_bytes:bb
  in
  Alcotest.(check int) "max ts" 2 max_ts;
  Alcotest.(check int) "records scanned" 2 records;
  Alcotest.(check int) "entries scanned" 3 entries;
  Alcotest.(check int) "index holds live set" 2 (Log_arena.Lww.length index);
  Alcotest.(check (option (pair int int)))
    "freshest write wins" (Some (2, 2)) (lww_find index 8);
  Alcotest.(check (option (pair int int)))
    "old but live survives" (Some (10, 1)) (lww_find index 16)

(* replay *)

let replay_image ~logs = Testlib.replay_image ~head_slot ~block_bytes:bb ~logs

let stats_of pm f =
  let before = Stats.copy (Pmem.stats pm) in
  let r = f () in
  (r, Stats.diff before (Pmem.stats pm))

let test_replay ~logs () =
  let pm, _, heads = replay_image ~logs in
  let (), scans =
    stats_of pm (fun () ->
        Array.iter
          (fun head_slot ->
            ignore
              (Log_arena.recover_scan pm ~head_slot ~block_bytes:bb
                 ~f:(fun ~ts:_ _ _ _ -> ())))
          heads)
  in
  let pm, base, heads = replay_image ~logs in
  let (max_ts, tails, records, entries, cells), d =
    stats_of pm (fun () -> Log_arena.replay pm ~block_bytes:bb heads)
  in
  Alcotest.(check (list int)) "max ts, tails, records, entries, cells"
    [ 60; logs; 60; 300; 48 ]
    [ max_ts; Array.length tails; records; entries; cells ];
  Alcotest.(check int) "no loads beyond the scans" scans.Stats.loads
    d.Stats.loads;
  Alcotest.(check int) "every entry stored" 300 d.Stats.stores;
  Alcotest.(check int) "one clwb per restored cell" 48 d.Stats.clwbs;
  Alcotest.(check int) "one fence" 1 d.Stats.fences;
  (* a zero bound: the gather buffer grows from one entry *)
  let pm', base', heads' = replay_image ~logs in
  let max_ts, tails, records, entries, cells =
    Log_arena.coalesce pm' ~block_bytes:bb ~log_bytes:0 heads'
  in
  Alcotest.(check (list int)) "coalesce: max ts, tails, records, entries, cells"
    [ 60; logs; 60; 300; 48 ]
    [ max_ts; Array.length tails; records; entries; cells ];
  Alcotest.(check (array int)) "the image of coalesce"
    (Testlib.read_cells pm' base' 64) (Testlib.read_cells pm base 64);
  Pmem.crash pm;
  Pmem.crash pm';
  Alcotest.(check (array int)) "and as durable"
    (Testlib.read_cells pm' base' 64) (Testlib.read_cells pm base 64)

(* last-writer-wins table *)

module Int_map = Map.Make (Int)

(* An add stream in the shapes a log feeds the table: long ascending runs
   of cells, power-of-two strides, one cell repeated at one timestamp,
   and scattered cells; timestamps come from a small range, so equal
   timestamps are common.  Streams run to thousands of cells, doubling
   the table many times over. *)
let lww_stream_arb =
  let open QCheck.Gen in
  let ts = int_bound 20 in
  let run =
    map3
      (fun base len ts -> List.init len (fun i -> (8 * (base + i), ts)))
      (int_bound 100_000) (int_range 1 600) ts
  and stride =
    map3
      (fun (base, k) len ts ->
        List.init len (fun i -> (8 * (base + (i lsl k)), ts)))
      (pair (int_bound 100_000) (int_range 1 12))
      (int_range 1 200) ts
  and dup =
    map3 (fun c n ts -> List.init n (fun _ -> (8 * c, ts))) (int_bound 5_000)
      (int_range 2 6) ts
  and scatter = list_size (int_range 1 100) (pair (map (( * ) 8) (int_bound 5_000)) ts) in
  let stream =
    map
      (fun segs -> List.mapi (fun v (a, ts) -> (a, v, ts)) (List.concat segs))
      (list_size (int_range 1 12) (oneof [ run; stride; dup; scatter ]))
  in
  QCheck.make ~print:(fun l -> Printf.sprintf "<%d adds>" (List.length l)) stream

let lww_bindings t =
  let l = ref [] in
  Log_arena.Lww.iter t (fun a ~value ~ts -> l := (a, (value, ts)) :: !l);
  List.rev !l

let prop_lww_model =
  QCheck.Test.make ~name:"Lww table = Map model" ~count:60 lww_stream_arb
    (fun adds ->
      let t = Log_arena.Lww.create () in
      (* model: cell -> (value, ts) under the [>=] rule; [order] holds
         the cells newest-first-inserted first *)
      let model, order =
        List.fold_left
          (fun (m, order) (a, v, ts) ->
            Log_arena.Lww.add t a ~value:v ~ts;
            match Int_map.find_opt a m with
            | Some (_, ts') when ts < ts' -> (m, order)
            | Some _ -> (Int_map.add a (v, ts) m, order)
            | None -> (Int_map.add a (v, ts) m, a :: order))
          (Int_map.empty, []) adds
      in
      let expect = List.rev_map (fun a -> (a, Int_map.find a model)) order in
      Log_arena.Lww.length t = Int_map.cardinal model
      && lww_bindings t = expect
      && List.for_all
           (fun (a, b) -> lww_find t a = Some b)
           expect
      && lww_find t (-8) = None
      && lww_find t (8 * 200_000) = None)

(* two logs sharing one timestamp counter, coalesced, restore the newest
   write of every cell in global timestamp order — whichever log is
   gathered first *)
let prop_coalesce_merges_logs =
  QCheck.Test.make ~name:"coalesce merges two logs by timestamp" ~count:60
    QCheck.(
      list_of_size Gen.(1 -- 30)
        (pair bool
           (list_of_size Gen.(1 -- 8) (pair (int_bound 60) (int_bound 100000)))))
    (fun txs ->
      let image () =
        let pm, heap = mk () in
        let arena =
          Array.init 2 (fun i ->
              Log_arena.create heap ~head_slot:(head_slot + i) ~block_bytes:bb)
        in
        let base = Heap.alloc heap (61 * 8) in
        List.iteri
          (fun i (second, entries) ->
            let a = arena.(Bool.to_int second) in
            Log_arena.begin_record a;
            List.iter
              (fun (c, v) ->
                ignore (Log_arena.add_entry a ~target:(base + (c * 8)) ~value:v))
              entries;
            Log_arena.commit_record a ~timestamp:(i + 1))
          txs;
        Pmem.crash pm;
        (pm, heap, base)
      in
      let model =
        List.fold_left
          (fun m (_, entries) ->
            List.fold_left (fun m (c, v) -> Int_map.add c v m) m entries)
          Int_map.empty txs
      in
      let expect =
        Array.init 61 (fun c -> Option.value ~default:0 (Int_map.find_opt c model))
      in
      let entries = List.fold_left (fun n (_, es) -> n + List.length es) 0 txs in
      List.for_all
        (fun order ->
          let pm, heap, base = image () in
          let max_ts, _, records, scanned, cells =
            Log_arena.coalesce pm ~block_bytes:bb
              ~log_bytes:(Heap.log_zone_bytes heap)
              (Array.map (fun i -> head_slot + i) order)
          in
          max_ts = List.length txs
          && records = List.length txs
          && scanned = entries
          && cells = Int_map.cardinal model
          && Testlib.read_cells pm base 61 = expect)
        [ [| 1; 0 |]; [| 0; 1 |] ])

(* The device order of a coalescing restore.  A history over 1-4 logs
   that share a timestamp counter: records with duplicate cells, cells
   written from several logs, and, on request, a crash inside the last
   commit that leaves its record torn.  The data cells are never written
   before recovery, so each store of a restored (non-zero) value changes
   exactly one cell.  Coalesce's device operations are read back one
   event at a time: the image is rebuilt and the restore crashed after
   its [k]-th event, for every [k] from the event before its first store
   on.  They must be the reference model's: a [Hashtbl] last-writer-wins
   fold over the records each log's scan accepts, log after log, cells
   in first-insert order, stably sorted by line; each line's cells
   stored, then the line flushed once; one fence.  The restored image
   must also be Replay's. *)
type dev_op = Store of Addr.t * int | Clwb of int | Fence | Other

let pp_dev_op ppf = function
  | Store (a, v) -> Fmt.pf ppf "store %d := %d" a v
  | Clwb l -> Fmt.pf ppf "clwb line %d" l
  | Fence -> Fmt.string ppf "fence"
  | Other -> Fmt.string ppf "other"

let order_cells = 48

let order_history_arb =
  let open QCheck.Gen in
  let entry = pair (int_bound (order_cells - 1)) (int_range 1 1_000_000) in
  let history =
    triple (int_range 1 4)
      (list_size (int_range 1 25)
         (pair (int_bound 3) (list_size (int_range 1 10) entry)))
      (opt (int_range 1 40))
  in
  QCheck.make
    ~print:(fun (logs, txs, torn) ->
      Fmt.str "%d logs, %d records, torn %a" logs (List.length txs)
        Fmt.(option ~none:(any "no") int)
        torn)
    history

let order_image (logs, txs, torn) () =
  let pm =
    Pmem.create ~seed:3 { Config.small with crash_word_persist_prob = 0.5 }
  in
  let heap = Heap.create pm in
  let arenas =
    Array.init logs (fun i ->
        Log_arena.create heap ~head_slot:(head_slot + i) ~block_bytes:bb)
  in
  let base = Heap.alloc heap (order_cells * 8) in
  let last = List.length txs - 1 in
  (try
     List.iteri
       (fun t (log, entries) ->
         let a = arenas.(log mod logs) in
         Log_arena.begin_record a;
         List.iter
           (fun (c, v) ->
             ignore (Log_arena.add_entry a ~target:(base + (c * 8)) ~value:v))
           entries;
         if t = last then Pmem.set_fuse pm torn;
         Log_arena.commit_record a ~timestamp:(t + 1))
       txs
   with Pmem.Crash -> ());
  Pmem.set_fuse pm None;
  Pmem.crash pm;
  (pm, heap, base, Array.init logs (fun i -> head_slot + i))

let model_ops pm heads =
  let cell = Hashtbl.create 64 and first = ref [] in
  Array.iter
    (fun head_slot ->
      ignore
        (Log_arena.recover_scan pm ~head_slot ~block_bytes:bb
           ~f:(fun ~ts addrs vals n ->
             for i = 0 to n - 1 do
               let a = addrs.(i) in
               match Hashtbl.find_opt cell a with
               | Some (_, ts') when ts < ts' -> ()
               | Some _ -> Hashtbl.replace cell a (vals.(i), ts)
               | None ->
                   Hashtbl.replace cell a (vals.(i), ts);
                   first := a :: !first
             done)))
    heads;
  let line = Addr.line_index in
  let cells =
    List.stable_sort (fun a b -> compare (line a) (line b)) (List.rev !first)
  in
  let rec ops = function
    | [] -> [ Fence ]
    | a :: rest ->
        let store = Store (a, fst (Hashtbl.find cell a)) in
        (match rest with
        | b :: _ when line b = line a -> [ store ]
        | _ -> [ store; Clwb (line a) ])
        @ ops rest
  in
  (ops cells, Hashtbl.length cell)

let coalesce_image (pm, heap, _, heads) =
  Log_arena.coalesce pm ~block_bytes:bb ~log_bytes:(Heap.log_zone_bytes heap)
    heads

(* the device state after the first [k] events of a coalescing restore *)
let after_events image k =
  let ((pm, _, base, _) as img) = image () in
  let before = Stats.copy (Pmem.stats pm) in
  Pmem.set_fuse pm (Some (k + 1));
  (try ignore (coalesce_image img) with Pmem.Crash -> ());
  Pmem.set_fuse pm None;
  let d = Stats.diff before (Pmem.stats pm) in
  ( (d.Stats.stores, d.Stats.clwbs, d.Stats.fences),
    Pmem.dirty_lines pm,
    Testlib.read_cells pm base order_cells )

(* The operation of each event after the scan's loads, up to the
   [events]-th, read off the states around it. *)
let observed_ops image ~base ~events =
  let written k =
    let (s, c, f), _, _ = after_events image k in
    s + c + f
  in
  (* the last event before the first store, clwb or fence *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if written (mid + 1) > 0 then first lo mid else first (mid + 1) hi
  in
  let rec from k ((s, c, f), lines, cells) acc =
    if k >= events then List.rev acc
    else
      let ((s', c', f'), lines', cells') as next = after_events image (k + 1) in
      let op =
        if (s', c', f') = (s + 1, c, f) then
          match
            List.filter
              (fun i -> cells.(i) <> cells'.(i))
              (List.init order_cells Fun.id)
          with
          | [ i ] -> Store (base + (i * 8), cells'.(i))
          | _ -> Other
        else if (s', c', f') = (s, c + 1, f) then
          match List.filter (fun l -> not (List.mem l lines')) lines with
          | [ l ] -> Clwb l
          | _ -> Other
        else if (s', c', f') = (s, c, f + 1) then Fence
        else Other
      in
      from (k + 1) next (op :: acc)
  in
  let k0 = first 0 events in
  from k0 (after_events image k0) []

let prop_coalesce_device_order =
  QCheck.Test.make ~name:"coalesce issues the model's stores and clwbs, in order"
    ~count:40 order_history_arb (fun history ->
      let image = order_image history in
      let ((pm, _, base, _) as img) = image () in
      let e0 = Pmem.events pm in
      let max_ts, _, records, entries, cells = coalesce_image img in
      let events = Pmem.events pm - e0 in
      let pm_m, _, _, heads_m = image () in
      let expect, live = model_ops pm_m heads_m in
      let got = observed_ops image ~base ~events in
      if got <> expect then
        QCheck.Test.fail_reportf "device ops@.%a@.model@.%a"
          Fmt.(list ~sep:cut pp_dev_op)
          got
          Fmt.(list ~sep:cut pp_dev_op)
          expect;
      let pm_r, _, base_r, heads_r = image () in
      let r_ts, _, r_records, r_entries, _ =
        Log_arena.replay pm_r ~block_bytes:bb heads_r
      in
      cells = live
      && (max_ts, records, entries) = (r_ts, r_records, r_entries)
      && Testlib.read_cells pm base order_cells
         = Testlib.read_cells pm_r base_r order_cells)

(* Walk budget: the words a log walk allocates on every heap, minor +
   major - promoted.  Arrays above 256 words go straight to the major
   heap, so minor words alone never see the walk's buffers, its table or
   the sort's temporary.  On OCaml 5.1 only [Gc.minor_words] counts the
   minor heap up to the moment of the call ([Gc.counters]' minor count
   and [Gc.quick_stat]'s counts wait for the next collection), while
   [Gc.counters] counts major words as they are allocated.  The first
   two cases walk a fixed log of 2,000 eight-entry records over 4,096
   cells: the walk copies entries into a reused flat buffer and folds
   them into a flat table, so what remains is table growth and the
   compacted chain's appends. *)
let words_of f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. before

let budget_log () =
  let pm = Pmem.create { Config.small with mem_size = 4 * 1024 * 1024 } in
  let heap = Heap.create pm in
  let a = Log_arena.create heap ~head_slot ~block_bytes:4096 in
  let cells = 4096 in
  let base = Heap.alloc heap (cells * 8) in
  for r = 0 to 1999 do
    Log_arena.begin_record a;
    for i = 0 to 7 do
      (* 389 is coprime to 4,096: every cell is hit, in scattered order *)
      let c = ((r * 8) + i) * 389 mod cells in
      ignore (Log_arena.add_entry a ~target:(base + (c * 8)) ~value:r)
    done;
    Log_arena.commit_record a ~timestamp:(r + 1)
  done;
  (pm, a)

let budget_entries = 2000 * 8

let test_walk_budget_collect () =
  let pm, _ = budget_log () in
  Pmem.crash pm;
  let scanned = ref 0 and live = ref 0 in
  let words =
    words_of (fun () ->
        let index, _, _, e, _ =
          Log_arena.recover_collect pm ~head_slot ~block_bytes:4096
        in
        scanned := e;
        live := Log_arena.Lww.length index)
  in
  Alcotest.(check int) "every entry scanned" budget_entries !scanned;
  Alcotest.(check int) "every cell live" 4096 !live;
  let per_entry = words /. float_of_int budget_entries in
  if per_entry > 4.0 then
    Alcotest.failf "recover_collect: %.2f words per entry (budget 4)" per_entry

let test_walk_budget_compact () =
  let _, a = budget_log () in
  let st = ref None in
  let words = words_of (fun () -> st := Some (Log_arena.compact a)) in
  let st = Option.get !st in
  Alcotest.(check int) "every entry scanned" budget_entries
    st.Log_arena.entries_scanned;
  Alcotest.(check int) "every cell live" 4096 st.Log_arena.entries_live;
  let per_entry = words /. float_of_int budget_entries in
  if per_entry > 4.0 then
    Alcotest.failf "compact: %.2f words per scanned entry (budget 4)"
      per_entry

(* Walk budget of a whole recovery: a [Spec_mt.recover] over 4 logs
   holding 125,000 entries — 100,000 distinct cells written in 40-entry
   records, then 25,000 rewrites. *)
let test_walk_budget_recover () =
  let pm = Pmem.create { Config.small with mem_size = 8 * 1024 * 1024 } in
  let heap = Heap.create pm in
  let params =
    { Specpmt_backends.Spec_soft.default_params with reclaim_bytes = max_int }
  in
  let mt = Specpmt_backends.Spec_mt.create ~params heap ~threads:4 in
  let cells = 100_000 in
  let base = Heap.alloc heap (cells * 8) in
  let record r cell =
    (Specpmt_backends.Spec_mt.thread mt (r mod 4)).Ctx.run_tx (fun ctx ->
        for i = 0 to 39 do
          ctx.Ctx.write (base + (cell i * 8)) ((r * 40) + i + 1)
        done)
  in
  for r = 0 to (cells / 40) - 1 do
    record r (fun i -> (r * 40) + i)
  done;
  (* 389 is coprime to 100,000: a record rewrites 40 distinct cells *)
  for r = cells / 40 to (cells / 40) + 624 do
    record r (fun i -> ((r * 40) + i) * 389 mod cells)
  done;
  Pmem.crash pm;
  let scanned = Specpmt_obs.Metrics.counter "recover.entries_scanned" in
  let scanned0 = Specpmt_obs.Metrics.counter_value scanned in
  let words = words_of (fun () -> Specpmt_backends.Spec_mt.recover mt) in
  Alcotest.(check int) "every entry scanned" 125_000
    (Specpmt_obs.Metrics.counter_value scanned - scanned0);
  Alcotest.(check int) "the last write of a cell is restored" (2_500 * 40)
    (Pmem.peek_volatile_int pm (base + (99_999 * 8)));
  let per_entry = words /. 125_000. in
  if per_entry > 7.0 then
    Alcotest.failf "Spec_mt.recover: %.2f words per scanned entry (budget 7)"
      per_entry

(* Append one-entry records (24 B meta + one 16 B entry) stamped [ts0],
   [ts0 + 1], ... until the next record would have to start a new block.
   Twelve of them fill a 512 B block's 504 B payload to within [min_space]
   of its end, so a scan that reaches the block's end follows its
   successor pointer — the path a stale recycled block is reached by. *)
let fill_block a ~ts0 =
  let block = Log_arena.current_block a in
  for r = 0 to 11 do
    Log_arena.begin_record a;
    ignore (Log_arena.add_entry a ~target:(8 * (r + 1)) ~value:(ts0 + r));
    Log_arena.commit_record a ~timestamp:(ts0 + r)
  done;
  assert (Log_arena.current_block a = block);
  block

let persist_word pm addr v =
  Pmem.store_int pm addr v;
  Pmem.clwb pm addr;
  Pmem.sfence pm

(* A block recycled from an older chain still holds records with valid
   checksums.  If the successor pointer leading to it reaches the media
   before its fresh header does, the scan walks into those records; they
   are older than everything before them, so the scan must stop there.
   Replaying them after the newer records would roll cells back. *)
let test_scan_stops_at_stale_recycled_record () =
  let pm, heap, a = mk_arena () in
  let head = fill_block a ~ts0:10 in
  (* the recycled block: another log's records, ts 1-3, same cells *)
  let old = Log_arena.create heap ~head_slot:(head_slot + 1) ~block_bytes:bb in
  for ts = 1 to 3 do
    Log_arena.begin_record old;
    ignore (Log_arena.add_entry old ~target:8 ~value:(-ts));
    Log_arena.commit_record old ~timestamp:ts
  done;
  Alcotest.(check int) "head block has no successor yet" 0
    (Pmem.load_int pm head);
  persist_word pm head (Log_arena.current_block old);
  Pmem.crash pm;
  let expect = List.init 12 (fun r -> (10 + r, [ (8 * (r + 1), 10 + r) ])) in
  Alcotest.(check (list (pair int (list (pair int int)))))
    "recover_scan stops before the stale records" expect (scan_all pm);
  let index, max_ts, records, _, tail =
    Log_arena.recover_collect pm ~head_slot ~block_bytes:bb
  in
  Alcotest.(check (pair int int)) "recover_collect stops too" (21, 12)
    (max_ts, records);
  Alcotest.(check (option (pair int int))) "cell 8 keeps its newest value"
    (Some (10, 10)) (lww_find index 8);
  (* attach resumes right after ts 21, not after the stale records *)
  let a = Log_arena.attach heap ~tail in
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:8 ~value:22);
  Log_arena.commit_record a ~timestamp:22;
  Pmem.crash pm;
  Alcotest.(check (list (pair int (list (pair int int)))))
    "the next record follows the last valid one"
    (expect @ [ (22, [ (8, 22) ]) ])
    (scan_all pm)

(* A cyclic chain must not hang the scan.  Records: the walk comes back
   to a record no newer than the last one and stops.  Record-less blocks
   (skip markers only): the hop bound stops it. *)
let test_scan_cyclic_chain_terminates () =
  let pm, heap, a = mk_arena () in
  let first = fill_block a ~ts0:1 in
  Log_arena.begin_record a (* chains the second block *);
  let second = Log_arena.current_block a in
  Log_arena.abandon_record a;
  ignore (fill_block a ~ts0:13);
  persist_word pm second first;
  Pmem.crash pm;
  Alcotest.(check (list int)) "each record once, in order"
    (List.init 24 (fun r -> r + 1))
    (List.map fst (scan_all pm));
  let a = Log_arena.attach heap ~tail:(tail_of pm) in
  Alcotest.(check int) "attach walks both blocks once" (2 * bb)
    (Log_arena.footprint a);
  (* two sealed empty blocks pointing at each other *)
  let skip_slot = head_slot + 1 in
  let s = Log_arena.create heap ~head_slot:skip_slot ~block_bytes:bb in
  let x = Log_arena.current_block s in
  Log_arena.seal_block s;
  let y = Log_arena.current_block s in
  Log_arena.seal_block s;
  persist_word pm y x;
  let n = ref 0 in
  Alcotest.(check int) "no record in a skip-marker cycle" 0
    (fst
       (Log_arena.recover_scan pm ~head_slot:skip_slot ~block_bytes:bb
          ~f:(fun ~ts:_ _ _ _ -> incr n)));
  Alcotest.(check int) "nothing replayed" 0 !n

(* a torn [reset] must never leave a scannable record prefix: the caller
   has already persisted the covered data, and replaying a stale prefix
   (fresher records lost behind a severed chain) would roll it back.
   Crash at every event of reset under deterministic per-word oracles and
   require the log to read either fully intact or fully empty.

   The record sizes are chosen so a record boundary lands within
   [min_space] of the first block's end: the recovery scan must then
   consult the head block's successor pointer — the very word a torn
   reset corrupts.  (Mid-record continuations travel through in-payload
   marker entries and never read it.) *)
let test_reset_crash_atomic () =
  let fill a =
    List.iteri
      (fun r n ->
        Log_arena.begin_record a;
        for i = 0 to n - 1 do
          ignore
            (Log_arena.add_entry a ~target:(8 * (i + 1)) ~value:((r * 100) + i))
        done;
        Log_arena.commit_record a ~timestamp:(r + 1))
      [ 6; 6; 6; 5; 6; 6; 6 ]
  in
  let freshest scan =
    let h = Hashtbl.create 8 in
    List.iter
      (fun (_, es) -> List.iter (fun (t, v) -> Hashtbl.replace h t v) es)
      scan;
    List.sort compare (Hashtbl.fold (fun t v acc -> (t, v) :: acc) h [])
  in
  let run fuse mk_oracle =
    let pm, heap = mk () in
    let a = Log_arena.create heap ~head_slot ~block_bytes:bb in
    fill a;
    let scan_all () =
      let recs = ref [] in
      ignore
        (Log_arena.recover_scan pm ~head_slot ~block_bytes:bb
           ~f:(fun ~ts addrs vals n ->
             recs := (ts, entries addrs vals n) :: !recs));
      List.rev !recs
    in
    let full = freshest (scan_all ()) in
    Pmem.set_fuse pm (Some fuse);
    let crashed =
      try
        Log_arena.reset a;
        false
      with Pmem.Crash -> true
    in
    let dw = Pmem.dirty_words pm in
    Pmem.crash_with pm ~persist:(mk_oracle dw);
    let after = freshest (scan_all ()) in
    Alcotest.(check bool)
      (Printf.sprintf "fuse %d: log intact or empty, never a prefix" fuse)
      true
      (after = [] || after = full);
    (crashed, List.length dw)
  in
  let all _ a = ignore a; true in
  let none _ a = ignore a; false in
  let keep_only k dw =
    let w = List.nth dw k in
    fun a -> a = w
  in
  let drop_only k dw =
    let w = List.nth dw k in
    fun a -> a <> w
  in
  let fuse = ref 1 and reset_completes = ref false in
  while not !reset_completes do
    let crashed, ndw = run !fuse all in
    ignore (run !fuse none);
    for k = 0 to ndw - 1 do
      ignore (run !fuse (keep_only k));
      ignore (run !fuse (drop_only k))
    done;
    if crashed then incr fuse else reset_completes := true
  done;
  Alcotest.(check bool) "reset eventually completes" true (!fuse > 1)

(* page records (hardware bulk-copy format) *)

let test_page_record_roundtrip () =
  let pm, heap = mk () in
  let a = Log_arena.create heap ~head_slot ~block_bytes:8192 in
  (* fill a page with a known pattern *)
  let page = Addr.page_of (Heap.alloc heap 8192) in
  for w = 0 to 511 do
    Pmem.store_int pm (page + (w * 8)) (w * 3)
  done;
  Log_arena.append_page_record a ~timestamp:4 ~page_base:page;
  (* a later normal record must still scan *)
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:64 ~value:5);
  Log_arena.commit_record a ~timestamp:6;
  Pmem.crash pm;
  let records = ref [] in
  let _ =
    Log_arena.recover_scan pm ~head_slot ~block_bytes:8192
      ~f:(fun ~ts addrs vals n -> records := (ts, entries addrs vals n) :: !records)
  in
  match List.rev !records with
  | [ (4, page_entries); (6, tail) ] ->
      Alcotest.(check int) "512 words" 512 (List.length page_entries);
      List.iteri
        (fun w (tgt, v) ->
          assert (tgt = page + (w * 8));
          assert (v = w * 3))
        page_entries;
      Alcotest.(check (list (pair int int))) "tail record" [ (64, 5) ] tail
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let test_page_record_chains_when_full () =
  let pm, heap = mk () in
  let a = Log_arena.create heap ~head_slot ~block_bytes:8192 in
  let page = Addr.page_of (Heap.alloc heap 8192) in
  (* leave too little room for a page record in the current block *)
  Log_arena.begin_record a;
  for i = 0 to 200 do
    ignore (Log_arena.add_entry a ~target:(8 * (i + 1)) ~value:i)
  done;
  Log_arena.commit_record a ~timestamp:1;
  Log_arena.append_page_record a ~timestamp:2 ~page_base:page;
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:8 ~value:99);
  Log_arena.commit_record a ~timestamp:3;
  Pmem.crash pm;
  let n = ref 0 in
  let _ = Log_arena.recover_scan pm ~head_slot ~block_bytes:8192
      ~f:(fun ~ts:_ _ _ _ -> incr n) in
  Alcotest.(check int) "all three records scan across the chain" 3 !n

(* seal + drop_prefix (epoch reclamation machinery) *)

let test_seal_and_drop_prefix () =
  let pm, _, a = mk_arena () in
  fill_arena a 3;
  Log_arena.seal_block a;
  let boundary = Log_arena.current_block a in
  fill_arena a 3;
  (* drop everything before the boundary *)
  let freed = Log_arena.drop_prefix a ~keep_from:boundary in
  Alcotest.(check bool) "blocks freed" true (freed > 0);
  Pmem.crash pm;
  let seen = ref [] in
  let _ = Log_arena.recover_scan pm ~head_slot ~block_bytes:bb
      ~f:(fun ~ts _ _ _ -> seen := ts :: !seen) in
  (* the second fill stamped 1..3 again; only those survive the drop *)
  Alcotest.(check (list int)) "only the records after the boundary"
    [ 3; 2; 1 ] !seen

(* Directed crash-during-recovery scenario for the attach sentinel: a
   record whose commit was torn by a first crash is truncated by
   recovery; the application then re-executes the same transaction at the
   same append point (deterministic replay writes the same entries at the
   same offsets) and a second crash hits before the new commit.  Word
   leakage at the second crash can re-populate exactly the entry words
   the first crash lost — combined with the already-persistent metadata
   of the torn record, the checksum validates and recovery #2 replays a
   record recovery #1 rejected.  The zero sentinel [attach] writes over
   the torn record's size word prevents this, but only if it is
   persisted (clwb + sfence): the volatile store of the original code is
   itself lost at the second crash.  This test fails on the unflushed
   version. *)
let test_attach_sentinel_second_crash () =
  let target_ts = 3 in
  let entries = List.init 6 (fun i -> (2048 + (8 * i), 3000 + i)) in
  let scan_ts pm =
    let seen = ref [] in
    let _, tail =
      Log_arena.recover_scan pm ~head_slot ~block_bytes:bb
        ~f:(fun ~ts _ _ _ -> seen := ts :: !seen)
    in
    (List.rev !seen, tail)
  in
  let resurrections = ref 0 and torn_cases = ref 0 in
  let run_one ~seed ~fuse =
    let pm =
      Pmem.create ~seed { Config.small with crash_word_persist_prob = 0.7 }
    in
    let heap = Heap.create pm in
    let a = Log_arena.create heap ~head_slot ~block_bytes:bb in
    Log_arena.begin_record a;
    ignore (Log_arena.add_entry a ~target:1000 ~value:1);
    Log_arena.commit_record a ~timestamp:1;
    Log_arena.begin_record a;
    ignore (Log_arena.add_entry a ~target:1008 ~value:2);
    Log_arena.commit_record a ~timestamp:2;
    (* third transaction: tear its commit at event [fuse] *)
    Pmem.set_fuse pm (Some fuse);
    let crashed =
      try
        Log_arena.begin_record a;
        List.iter
          (fun (t, v) -> ignore (Log_arena.add_entry a ~target:t ~value:v))
          entries;
        Log_arena.commit_record a ~timestamp:target_ts;
        Pmem.set_fuse pm None;
        false
      with Pmem.Crash -> true
    in
    if not crashed then `Commit_completed
    else begin
      Pmem.crash pm;
      let s1, tail = scan_ts pm in
      if List.mem target_ts s1 then
        (* the whole record leaked at the first crash: it is durable, not
           torn — nothing to resurrect *)
        `Lucky_leak
      else begin
        incr torn_cases;
        (* recovery: reattach, then re-execute the same transaction; the
           second crash hits before its commit *)
        let a2 = Log_arena.attach heap ~tail in
        Log_arena.begin_record a2;
        List.iter
          (fun (t, v) -> ignore (Log_arena.add_entry a2 ~target:t ~value:v))
          entries;
        Pmem.crash pm;
        let s2, _ = scan_ts pm in
        if List.mem target_ts s2 then incr resurrections;
        (* recovery #2 must replay a subset of what recovery #1 saw *)
        if not (List.for_all (fun ts -> List.mem ts s1) s2) then
          incr resurrections;
        `Torn
      end
    end
  in
  (* sweep the crash point across the whole commit and several leak
     patterns; stop each seed's sweep once the fuse outlives the commit *)
  for seed = 0 to 14 do
    let fuse = ref 1 and sweeping = ref true in
    while !sweeping do
      (match run_one ~seed ~fuse:!fuse with
      | `Commit_completed -> sweeping := false
      | `Lucky_leak | `Torn -> ());
      incr fuse
    done
  done;
  Alcotest.(check bool) "sweep exercised torn commits" true (!torn_cases > 0);
  Alcotest.(check int) "no torn record is ever resurrected" 0 !resurrections

let test_abandon_record () =
  let pm, _, a = mk_arena () in
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:8 ~value:1);
  Log_arena.commit_record a ~timestamp:1;
  Log_arena.begin_record a;
  Log_arena.abandon_record a;
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:16 ~value:2);
  Log_arena.commit_record a ~timestamp:2;
  Pmem.crash pm;
  Alcotest.(check int) "both real records scan" 2
    (List.length (scan_all pm))

(* random records: scanning returns exactly what was committed *)
let prop_arena_roundtrip =
  QCheck.Test.make ~name:"scan = committed records" ~count:80
    QCheck.(
      list_of_size Gen.(1 -- 12)
        (list_of_size Gen.(1 -- 20) (pair (int_bound 500) (int_bound 100000))))
    (fun recs ->
      let pm, _, a = mk_arena () in
      List.iteri
        (fun i entries ->
          Log_arena.begin_record a;
          List.iter
            (fun (cell, v) ->
              ignore (Log_arena.add_entry a ~target:(8 * (cell + 1)) ~value:v))
            entries;
          Log_arena.commit_record a ~timestamp:(i + 1))
        recs;
      Pmem.crash pm;
      let got = scan_all pm in
      got
      = List.mapi
          (fun i entries ->
            (i + 1, List.map (fun (c, v) -> ((8 * (c + 1)), v)) entries))
          recs)

(* property: crash at ANY memory event during a sequence of appends and
   commits — the scan must always yield a prefix of the committed records,
   never garbage, never a record out of order *)
(* tentative (group-commit) records: a poisoned-checksum commit is
   invisible to recovery under any persist outcome until sealed *)

let tentative_round a r =
  Log_arena.begin_record a;
  ignore (Log_arena.add_entry a ~target:(1000 + (r * 8)) ~value:(r * 11));
  Log_arena.commit_record a ~tentative:true ~timestamp:r

let test_arena_tentative_invisible_until_sealed () =
  let pm, _, a = mk_arena () in
  tentative_round a 1;
  tentative_round a 2;
  Alcotest.(check int) "two pending" 2 (Log_arena.tentative_records a);
  (* worst case for the invisibility claim: every dirty word drains *)
  Pmem.crash_with pm ~persist:(fun _ -> true);
  Alcotest.(check (list (pair int (list (pair int int)))))
    "unsealed records are invisible even fully persisted" [] (scan_all pm)

let test_arena_seal_makes_batch_durable () =
  let pm, _, a = mk_arena () in
  tentative_round a 1;
  tentative_round a 2;
  Alcotest.(check int) "seals both" 2 (Log_arena.seal_tentative a);
  Alcotest.(check int) "none pending" 0 (Log_arena.tentative_records a);
  (* worst case for the durability claim: nothing further drains — the
     seal's own flush run + fence must already have persisted the batch *)
  Pmem.crash_with pm ~persist:(fun _ -> false);
  Alcotest.(check (list (pair int (list (pair int int)))))
    "sealed batch survives a drain-nothing crash"
    [ (1, [ (1000 + 8, 11) ]); (2, [ (1000 + 16, 22) ]) ]
    (scan_all pm)

let test_arena_seal_crash_yields_prefix () =
  (* dry-run the seal to size its event window, then crash at every
     event inside it: recovery must see a timestamp-prefix of the batch *)
  let seal_events =
    let pm, _, a = mk_arena () in
    for r = 1 to 3 do tentative_round a r done;
    let e0 = Pmem.events pm in
    ignore (Log_arena.seal_tentative a);
    Pmem.events pm - e0
  in
  Alcotest.(check bool) "seal does some work" true (seal_events > 0);
  for fuse = 1 to seal_events do
    let pm, _, a = mk_arena () in
    for r = 1 to 3 do tentative_round a r done;
    Pmem.set_fuse pm (Some fuse);
    (try ignore (Log_arena.seal_tentative a) with Pmem.Crash -> ());
    Pmem.crash_with pm ~persist:(fun _ -> true);
    let seen = List.map fst (scan_all pm) in
    let is_prefix = seen = List.init (List.length seen) (fun i -> i + 1) in
    if not is_prefix then
      Alcotest.failf "fuse %d: recovered %a, not a batch prefix" fuse
        Fmt.(Dump.list int)
        seen
  done

let prop_crash_prefix =
  QCheck.Test.make ~name:"any crash yields a committed-record prefix"
    ~count:120
    QCheck.(pair (int_range 1 2000) (int_range 0 10))
    (fun (fuse, leak) ->
      let pm =
        Pmem.create
          {
            Config.small with
            crash_word_persist_prob = float_of_int leak /. 10.0;
          }
      in
      let heap = Heap.create pm in
      let a = Log_arena.create heap ~head_slot ~block_bytes:bb in
      let committed = ref 0 in
      Pmem.set_fuse pm (Some fuse);
      (try
         for r = 1 to 40 do
           Log_arena.begin_record a;
           for i = 0 to 5 do
             ignore
               (Log_arena.add_entry a ~target:(8 * ((r * 7 mod 11) + i + 1))
                  ~value:((r * 100) + i))
           done;
           Log_arena.commit_record a ~timestamp:r;
           committed := r
         done;
         Pmem.set_fuse pm None
       with Pmem.Crash -> ());
      Pmem.crash pm;
      let seen = ref [] in
      let _ =
        Log_arena.recover_scan pm ~head_slot ~block_bytes:bb
          ~f:(fun ~ts _ _ _ -> seen := ts :: !seen)
      in
      let seen = List.rev !seen in
      (* must be exactly 1..k for some k in {committed, committed+1} *)
      let expected_prefix k = List.init k (fun i -> i + 1) in
      seen = expected_prefix !committed
      || seen = expected_prefix (min 40 (!committed + 1)))

(* tsc: the shared commit-timestamp counter must hand out globally
   unique, strictly positive timestamps even when several domains pull
   from it concurrently — recovery's total order depends on it *)

let test_tsc_multi_domain_unique () =
  let tsc = Tsc.create () in
  let domains = 4 and per_domain = 10_000 in
  let workers =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            Array.init per_domain (fun _ -> Tsc.next tsc)))
  in
  let drawn = Array.map Domain.join workers in
  let seen = Hashtbl.create (domains * per_domain) in
  Array.iter
    (fun batch ->
      (* within one domain the draws are strictly increasing *)
      Array.iteri
        (fun i ts ->
          if i > 0 then
            Alcotest.(check bool) "monotone within a domain" true
              (ts > batch.(i - 1));
          Alcotest.(check bool) "timestamp positive" true (ts >= 1);
          if Hashtbl.mem seen ts then
            Alcotest.failf "timestamp %d drawn twice" ts;
          Hashtbl.add seen ts ())
        batch)
    drawn;
  Alcotest.(check int) "every draw distinct" (domains * per_domain)
    (Hashtbl.length seen);
  Alcotest.(check int) "no timestamps lost"
    ((domains * per_domain) + 1)
    (Tsc.peek tsc)

let test_tsc_restart_above () =
  let tsc = Tsc.create () in
  for _ = 1 to 5 do
    ignore (Tsc.next tsc)
  done;
  Tsc.restart_above tsc 100;
  Alcotest.(check int) "restart jumps above" 101 (Tsc.peek tsc);
  (* never moves backwards *)
  Tsc.restart_above tsc 3;
  Alcotest.(check int) "restart below is a no-op" 101 (Tsc.peek tsc)

(* ---------- outcome hooks: the Ctx.Shell contract, every scheme ---------- *)

let schemes =
  List.map
    (fun k ->
      ( Specpmt_backends.Registry.name k,
        fun heap -> Specpmt_backends.Registry.create heap k ))
    Specpmt_backends.Registry.all
  @ List.map
      (fun k ->
        ( Specpmt_hwtxn.Hw_registry.name k,
          fun heap -> Specpmt_hwtxn.Hw_registry.create heap k ))
      Specpmt_hwtxn.Hw_registry.all

(* a fresh backend per check: a nested call or a crash leaves the shell
   open, and not every scheme can recover *)
let fresh create =
  let pm, heap = Testlib.mk_pool () in
  let b = create heap in
  (pm, b, Heap.alloc heap 64)

(* Allocation budget: minor words per one-write transaction, after a
   warm-up, for the schemes that checksum three words per log slot or
   undo entry.  The three words fold through [crc32c_pair] and
   [crc32c_word], with no list or buffer, and EDE's undo log writes each
   entry and each truncation through one of two buffers it owns: ~23
   (Spec-hashlog) and ~14 (EDE) measured, against 45 and 66 with a
   [Checksum.words] list per checksum and 44 for EDE with a fresh list
   and buffer per store. *)
let test_commit_budget () =
  List.iter
    (fun (name, bound) ->
      let _, b, base = fresh (List.assoc name schemes) in
      let tx i =
        b.Ctx.run_tx (fun ctx -> ctx.Ctx.write (base + (8 * (i land 7))) i)
      in
      for i = 1 to 1_000 do
        tx i
      done;
      let w0 = Gc.minor_words () in
      for i = 1 to 10_000 do
        tx i
      done;
      let per_tx = (Gc.minor_words () -. w0) /. 10_000.0 in
      if per_tx > bound then
        Alcotest.failf "%s: %.1f minor words per one-write commit (budget %.0f)"
          name per_tx bound)
    [ ("Spec-hashlog", 30.0); ("EDE", 17.0) ]

(* A read of a cell the open transaction wrote is served from SPHT's
   and HOOP's buffer by position, with no option or tuple per hit (5
   words each when the lookup returned [Some (value, ts)]). *)
let test_buffered_read_budget () =
  List.iter
    (fun name ->
      let _, b, base = fresh (List.assoc name schemes) in
      let reads () =
        b.Ctx.run_tx (fun ctx ->
            ctx.Ctx.write base 1;
            let w0 = Gc.minor_words () in
            for _ = 1 to 1_000 do
              ignore (Sys.opaque_identity (ctx.Ctx.read base))
            done;
            Gc.minor_words () -. w0)
      in
      let overhead =
        b.Ctx.run_tx (fun _ ->
            let w0 = Gc.minor_words () in
            Gc.minor_words () -. w0)
      in
      let words = reads () -. overhead in
      if words > 0.0 then
        Alcotest.failf "%s: %.0f minor words over 1,000 buffered reads" name
          words)
    [ "SPHT"; "HOOP" ]

let outcomes = Alcotest.(list (pair int bool))

let test_hook_contract create () =
  let log = ref [] in
  let hook i ok = log := (i, ok) :: !log in
  let fired what want =
    Alcotest.check outcomes what want (List.rev !log);
    log := []
  in
  (* commit: each hook once with [true], in registration order, after
     the shell closed — the second hook opens the next transaction *)
  let _, b, base = fresh create in
  let kept = ref None in
  b.Ctx.run_tx (fun ctx ->
      kept := Some ctx;
      ctx.Ctx.write base 1;
      ctx.Ctx.on_end (hook 1);
      ctx.Ctx.on_end (fun ok ->
          hook 2 ok;
          b.Ctx.run_tx (fun ctx -> ctx.Ctx.write (base + 8) 2));
      ctx.Ctx.on_end (hook 3));
  fired "commit" [ (1, true); (2, true); (3, true) ];
  Alcotest.(check int) "the hook's transaction committed" 2
    (b.Ctx.run_tx (fun ctx -> ctx.Ctx.read (base + 8)));
  (match (Option.get !kept).Ctx.on_end (hook 9) with
  | () -> Alcotest.fail "on_end on a ctx kept past its transaction"
  | exception Invalid_argument _ -> ());
  (* Abort: [false] once, re-raised *)
  (match
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.on_end (hook 1);
         ctx.Ctx.write base 5;
         raise Ctx.Abort)
   with
  | () -> Alcotest.fail "Abort swallowed"
  | exception Ctx.Abort -> ());
  fired "abort" [ (1, false) ];
  (* a device crash in the body *)
  let pm, b, base = fresh create in
  (match
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.on_end (hook 1);
         Pmem.set_fuse pm (Some 1);
         ctx.Ctx.write base 7)
   with
  | () -> Alcotest.fail "the fuse never blew"
  | exception Pmem.Crash -> ());
  fired "crash in the body" [ (1, false) ];
  (* a nested transaction *)
  let _, b, _ = fresh create in
  (match
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.on_end (hook 1);
         b.Ctx.run_tx ignore)
   with
  | () -> Alcotest.fail "nested run_tx accepted"
  | exception Invalid_argument _ -> ());
  fired "nested" [ (1, false) ]

(* a device crash inside commit or rollback fires no hook: sweep the
   fuse over every event after an 8-write body until the transaction
   completes, which then fires its hook exactly once *)
let test_crash_in_commit_fires_no_hook create () =
  let crashes = ref 0 in
  List.iter
    (fun abort ->
      let rec sweep fuse =
        let pm, b, base = fresh create in
        let fired = ref 0 in
        match
          b.Ctx.run_tx (fun ctx ->
              for i = 0 to 7 do
                ctx.Ctx.write (base + (8 * i)) (i + 1)
              done;
              ctx.Ctx.on_end (fun _ -> incr fired);
              Pmem.set_fuse pm (Some fuse);
              if abort then raise Ctx.Abort)
        with
        | () | (exception Ctx.Abort) ->
            Alcotest.(check int) "completed: fired once" 1 !fired
        | exception Pmem.Crash ->
            Alcotest.(check int) "crashed: never fired" 0 !fired;
            incr crashes;
            sweep (fuse + 1)
      in
      sweep 1)
    [ false; true ];
  Alcotest.(check bool) "the sweep crashed inside the shell" true (!crashes > 0)

let test_raw_hooks_fire_at_once () =
  let _, b, _ = fresh (fun heap -> Specpmt_backends.Registry.create heap Raw) in
  let fired = ref [] in
  b.Ctx.run_tx (fun ctx ->
      ctx.Ctx.on_end (fun ok -> fired := ok :: !fired);
      Alcotest.(check (list bool)) "fired on registration" [ true ] !fired);
  Alcotest.(check (list bool)) "fired once" [ true ] !fired

let hook_cases =
  List.concat_map
    (fun (n, create) ->
      if n = "raw" then
        [
          Alcotest.test_case "raw: fires at once" `Quick
            test_raw_hooks_fire_at_once;
        ]
      else
        [
          Alcotest.test_case (n ^ ": contract") `Quick
            (test_hook_contract create);
          Alcotest.test_case (n ^ ": crash in commit or rollback") `Quick
            (test_crash_in_commit_fires_no_hook create);
        ])
    schemes

let () =
  Alcotest.run "txn"
    [
      ( "tsc",
        [
          Alcotest.test_case "multi-domain draws unique" `Quick
            test_tsc_multi_domain_unique;
          Alcotest.test_case "restart_above monotone" `Quick
            test_tsc_restart_above;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "known vector" `Quick test_crc_known;
          Alcotest.test_case "word-fold oracle" `Quick
            test_crc_word_fold_oracle;
          QCheck_alcotest.to_alcotest prop_crc_word_fold_oracle;
          QCheck_alcotest.to_alcotest prop_crc_pair;
          QCheck_alcotest.to_alcotest prop_crc_triple;
          QCheck_alcotest.to_alcotest prop_crc_detects_flip;
        ] );
      ( "write set",
        [
          Alcotest.test_case "first/order semantics" `Quick
            test_write_set_first_and_order;
          Alcotest.test_case "clear after a 65,536-cell tx" `Quick
            test_write_set_clear_after_big;
          Alcotest.test_case "shrinks back after a 65,536-cell tx" `Quick
            test_write_set_shrinks_back;
          QCheck_alcotest.to_alcotest prop_write_set_model;
        ] );
      ( "reset",
        [
          Alcotest.test_case "Lww clear independent of past tables" `Quick
            test_lww_reset_history_independent;
        ] );
      ( "log arena",
        [
          Alcotest.test_case "commit and scan" `Quick
            test_arena_commit_and_scan;
          Alcotest.test_case "torn record dropped" `Quick
            test_arena_torn_record_dropped;
          Alcotest.test_case "torn record dropped (leaky crash)" `Quick
            test_arena_torn_record_dropped_even_if_leaked;
          Alcotest.test_case "record spans blocks" `Quick
            test_arena_record_spans_blocks;
          Alcotest.test_case "freshen entry in place" `Quick
            test_arena_freshen_entry;
          Alcotest.test_case "compact keeps freshest" `Quick
            test_arena_compact_keeps_freshest;
          Alcotest.test_case "append after compact" `Quick
            test_arena_append_after_compact;
          Alcotest.test_case "attach resumes" `Quick test_arena_attach_resumes;
          Alcotest.test_case "compaction crash-atomic" `Slow
            test_compact_is_crash_atomic;
          Alcotest.test_case "compact preserves timestamps" `Quick
            test_compact_preserves_timestamps;
          Alcotest.test_case "compaction order = comparator order" `Quick
            test_compaction_order_differential;
          Alcotest.test_case "recover_collect last-writer-wins" `Quick
            test_recover_collect_last_writer_wins;
          Alcotest.test_case "replay: one log" `Quick (test_replay ~logs:1);
          Alcotest.test_case "replay: three interleaved logs" `Quick
            (test_replay ~logs:3);
          Alcotest.test_case "scan stops at a recycled block's stale record"
            `Quick test_scan_stops_at_stale_recycled_record;
          Alcotest.test_case "scan of a cyclic chain terminates" `Quick
            test_scan_cyclic_chain_terminates;
          Alcotest.test_case "reset crash-atomic" `Quick
            test_reset_crash_atomic;
          Alcotest.test_case "page record roundtrip" `Quick
            test_page_record_roundtrip;
          Alcotest.test_case "page record chains" `Quick
            test_page_record_chains_when_full;
          Alcotest.test_case "seal + drop prefix" `Quick
            test_seal_and_drop_prefix;
          Alcotest.test_case "abandon record" `Quick test_abandon_record;
          Alcotest.test_case "tentative invisible until sealed" `Quick
            test_arena_tentative_invisible_until_sealed;
          Alcotest.test_case "seal makes batch durable" `Quick
            test_arena_seal_makes_batch_durable;
          Alcotest.test_case "seal crash yields prefix" `Quick
            test_arena_seal_crash_yields_prefix;
          Alcotest.test_case "attach sentinel survives second crash" `Slow
            test_attach_sentinel_second_crash;
          QCheck_alcotest.to_alcotest prop_arena_roundtrip;
          QCheck_alcotest.to_alcotest prop_crash_prefix;
          QCheck_alcotest.to_alcotest prop_coalesce_device_order;
        ] );
      ( "lww table",
        [
          QCheck_alcotest.to_alcotest prop_lww_model;
          QCheck_alcotest.to_alcotest prop_coalesce_merges_logs;
        ] );
      ( "walk budget",
        [
          Alcotest.test_case "recover_collect <= 4 words/entry, all heaps"
            `Quick test_walk_budget_collect;
          Alcotest.test_case "compact <= 4 words/scanned entry, all heaps"
            `Quick test_walk_budget_compact;
          Alcotest.test_case "Spec_mt.recover <= 7 words/scanned entry, all heaps"
            `Quick test_walk_budget_recover;
        ] );
      ( "alloc budget",
        [
          Alcotest.test_case "minor words per one-write commit" `Quick
            test_commit_budget;
          Alcotest.test_case "buffered reads allocate nothing" `Quick
            test_buffered_read_budget;
        ] );
      ("outcome hooks", hook_cases);
    ]
