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

let prop_crc_detects_flip =
  QCheck.Test.make ~name:"crc detects single-word corruption" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 10) (int_bound 10000)) small_nat)
    (fun (ws, i) ->
      QCheck.assume (ws <> []);
      let i = i mod List.length ws in
      let ws' = List.mapi (fun j w -> if j = i then w + 1 else w) ws in
      Checksum.words ws <> Checksum.words ws')

(* write set *)

let test_write_set_first_and_order () =
  let ws = Write_set.create () in
  let s1, f1 = Write_set.record ws 8 ~old_value:10 in
  let _, f2 = Write_set.record ws 16 ~old_value:20 in
  let s3, f3 = Write_set.record ws 8 ~old_value:999 in
  Alcotest.(check bool) "first" true f1;
  Alcotest.(check bool) "second addr first" true f2;
  Alcotest.(check bool) "repeat not first" false f3;
  Alcotest.(check bool) "same slot" true (s1 == s3);
  Alcotest.(check int) "old value kept from first write" 10
    s3.Write_set.old_value;
  let order = ref [] in
  Write_set.iter_in_order ws (fun a _ -> order := a :: !order);
  Alcotest.(check (list int)) "oldest first" [ 16; 8 ] !order

(* Probe-colliding cells.  The write set hashes cell index x = addr / 8 to
   (x * C) mod table size, so cells whose indexes agree modulo 2^20 share a
   home slot in every probe table of up to 2^20 slots.  [tail_x] mirrors
   write_set.ml's multiplier C to home its class on each table's last
   slot, so those chains wrap past the end into the class of residue 0. *)
let collide_bits = 20

let tail_x =
  let m = (1 lsl collide_bits) - 1 in
  let rec go x = if (x * 0x9E3779B1) land m = m then x else go (x + 1) in
  go 0

let colliding ~residue j = 8 * (residue + (j lsl collide_bits))

(* One transaction big enough to grow the table several times (> 65,536
   distinct cells: 64 -> 131,072 cell capacity), with two 512-long
   colliding chains that wrap, in a seeded order. *)
let big_tx_cells seed =
  let cells =
    Array.concat
      [
        Array.init 512 (colliding ~residue:tail_x);
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
  Write_set.iter_in_order ws (fun a s ->
      l := (a, s.Write_set.old_value, s.Write_set.entry_pos) :: !l);
  List.rev !l

let test_write_set_clear_after_big () =
  let ws = Write_set.create () in
  let big = big_tx_cells 1 in
  Array.iter (fun a -> ignore (Write_set.record ws a ~old_value:a)) big;
  (* address 0 is both in the residue-0 chain and in the dense range *)
  Alcotest.(check int) "big tx cells" (70_000 + 1023) (Write_set.size ws);
  Write_set.clear ws;
  Alcotest.(check int) "cleared" 0 (Write_set.size ws);
  Array.iter
    (fun a ->
      if Write_set.find ws a <> None then
        Alcotest.failf "cell %d still indexed after clear" a)
    big;
  (* a tiny transaction over old and new cells: each is a first write and
     iteration yields only these *)
  let tiny =
    [ colliding ~residue:tail_x 3; 8 * 70_001; big.(0);
      colliding ~residue:0 511; colliding ~residue:tail_x 600 ]
  in
  List.iteri
    (fun i a ->
      let _, first = Write_set.record ws a ~old_value:i in
      if not first then Alcotest.failf "cell %d not a first write" a)
    tiny;
  Alcotest.(check (list (triple int int int)))
    "only the new cells, oldest first, entries not yet placed"
    (List.mapi (fun i a -> (a, i, -1)) tiny)
    (ws_cells ws);
  let newest = ref [] in
  Write_set.iter_newest_first ws (fun a _ -> newest := a :: !newest);
  Alcotest.(check (list int)) "newest first" tiny !newest

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
        return (colliding ~residue:tail_x j);
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
      let ws = Write_set.create () in
      (* addr -> (old value, entry position); [order] is newest first.
         The entry position is the slot's mutable payload: the model
         writes [v + 1] into it on every record. *)
      let model = Hashtbl.create 64 and order = ref [] in
      let record a v =
        let s, first = Write_set.record ws a ~old_value:v in
        (match Hashtbl.find_opt model a with
        | None ->
            if not first then
              QCheck.Test.fail_reportf "%d: repeat reported for a new cell" a;
            order := a :: !order
        | Some (old, _) ->
            if first then
              QCheck.Test.fail_reportf "%d: first write reported twice" a;
            if s.Write_set.old_value <> old then
              QCheck.Test.fail_reportf "%d: undo image overwritten" a);
        let old = if first then v else s.Write_set.old_value in
        s.Write_set.entry_pos <- v + 1;
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
              let got =
                Option.map
                  (fun s -> (s.Write_set.old_value, s.Write_set.entry_pos))
                  (Write_set.find ws a)
              in
              if got <> Hashtbl.find_opt model a then
                QCheck.Test.fail_reportf "find %d disagrees with the model" a
          | In_order ->
              if ws_cells ws <> expect () then
                QCheck.Test.fail_report "iter_in_order disagrees"
          | Newest_first ->
              let l = ref [] in
              Write_set.iter_newest_first ws (fun a s ->
                  l := (a, s.Write_set.old_value, s.Write_set.entry_pos) :: !l);
              if !l <> expect () then
                QCheck.Test.fail_report "iter_newest_first disagrees"
          | Clear ->
              Write_set.clear ws;
              Hashtbl.reset model;
              order := []);
          if Write_set.size ws <> Hashtbl.length model then
            QCheck.Test.fail_reportf "size %d, model %d" (Write_set.size ws)
              (Hashtbl.length model))
        ops;
      true)

(* History independence: a reset must not pay for the largest write set
   the runtime has seen.  10,000 one-cell record+clear cycles after a
   65,536-cell transaction must cost under 8x the same loop on a fresh
   write set.  A ratio of CPU times, best of interleaved rounds, so it
   holds on a slow or busy host. *)
let test_reset_history_independent () =
  let cycles ws =
    let t0 = Sys.time () in
    for i = 1 to 10_000 do
      ignore (Write_set.record ws 8 ~old_value:i);
      Write_set.clear ws
    done;
    Sys.time () -. t0
  in
  let fresh = Write_set.create () and used = Write_set.create () in
  for x = 0 to 65_535 do
    ignore (Write_set.record used (8 * x) ~old_value:0)
  done;
  Write_set.clear used;
  let best_fresh = ref infinity and best_used = ref infinity in
  for _ = 1 to 7 do
    best_fresh := Float.min !best_fresh (cycles fresh);
    best_used := Float.min !best_used (cycles used)
  done;
  let ratio = !best_used /. Float.max !best_fresh 1e-6 in
  if ratio >= 8.0 then
    Alcotest.failf
      "10k one-cell resets cost %.1fx more after a 65,536-cell tx (%.0f vs \
       %.0f us)"
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
  let index = Log_arena.Lww.create () in
  let max_ts, records, entries, _ =
    Log_arena.recover_collect pm ~head_slot ~block_bytes:bb ~index
  in
  Alcotest.(check int) "max ts" 2 max_ts;
  Alcotest.(check int) "records scanned" 2 records;
  Alcotest.(check int) "entries scanned" 3 entries;
  Alcotest.(check int) "index holds live set" 2 (Log_arena.Lww.length index);
  Alcotest.(check (option (pair int int)))
    "freshest write wins" (Some (2, 2)) (Log_arena.Lww.find index 8);
  Alcotest.(check (option (pair int int)))
    "old but live survives" (Some (10, 1)) (Log_arena.Lww.find index 16)

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
           (fun (a, b) -> Log_arena.Lww.find t a = Some b)
           expect
      && Log_arena.Lww.find t (-8) = None
      && Log_arena.Lww.find t (8 * 200_000) = None)

(* two logs sharing one timestamp counter, collected into one table, read
   back as the newest write of every cell in global timestamp order —
   whichever log is fed first *)
let prop_collect_merges_logs =
  QCheck.Test.make ~name:"recover_collect merges two logs by timestamp"
    ~count:60
    QCheck.(
      list_of_size Gen.(1 -- 30)
        (pair bool
           (list_of_size Gen.(1 -- 8) (pair (int_bound 60) (int_bound 100000)))))
    (fun txs ->
      let pm, heap = mk () in
      let arena = Array.init 2 (fun i ->
          Log_arena.create heap ~head_slot:(head_slot + i) ~block_bytes:bb)
      in
      List.iteri
        (fun i (second, entries) ->
          let a = arena.(Bool.to_int second) in
          Log_arena.begin_record a;
          List.iter
            (fun (c, v) ->
              ignore (Log_arena.add_entry a ~target:(8 * (c + 1)) ~value:v))
            entries;
          Log_arena.commit_record a ~timestamp:(i + 1))
        txs;
      Pmem.crash pm;
      let index = Log_arena.Lww.create () in
      let collect i =
        let max_ts, records, scanned, _ =
          Log_arena.recover_collect pm ~head_slot:(head_slot + i)
            ~block_bytes:bb ~index
        in
        (max_ts, records, scanned)
      in
      let ts1, r1, e1 = collect 1 and ts0, r0, e0 = collect 0 in
      let model =
        List.fold_left
          (fun (m, i) (_, entries) ->
            ( List.fold_left
                (fun m (c, v) -> Int_map.add (8 * (c + 1)) (v, i) m)
                m entries,
              i + 1 ))
          (Int_map.empty, 1) txs
        |> fst
      in
      max ts0 ts1 = List.length txs
      && r0 + r1 = List.length txs
      && e0 + e1 = List.fold_left (fun n (_, es) -> n + List.length es) 0 txs
      && List.sort compare (lww_bindings index) = Int_map.bindings model)

(* Walk budget: minor words the shared log walk allocates, on a fixed log
   of 2,000 eight-entry records over 4,096 cells.  The walk copies
   entries into a reused flat buffer and folds them into a flat table,
   so what remains is the device's own charge per load, table growth and
   the compacted chain's appends. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

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
  let index = Log_arena.Lww.create () in
  let scanned = ref 0 in
  let words =
    minor_words_of (fun () ->
        let _, _, e, _ =
          Log_arena.recover_collect pm ~head_slot ~block_bytes:4096 ~index
        in
        scanned := e)
  in
  Alcotest.(check int) "every entry scanned" budget_entries !scanned;
  Alcotest.(check int) "every cell live" 4096 (Log_arena.Lww.length index);
  let per_entry = words /. float_of_int budget_entries in
  if per_entry > 10.0 then
    Alcotest.failf "recover_collect: %.1f minor words per entry (budget 10)"
      per_entry

let test_walk_budget_compact () =
  let _, a = budget_log () in
  let st = ref None in
  let words = minor_words_of (fun () -> st := Some (Log_arena.compact a)) in
  let st = Option.get !st in
  Alcotest.(check int) "every entry scanned" budget_entries
    st.Log_arena.entries_scanned;
  Alcotest.(check int) "every cell live" 4096 st.Log_arena.entries_live;
  let per_entry = words /. float_of_int budget_entries in
  if per_entry > 24.0 then
    Alcotest.failf "compact: %.1f minor words per scanned entry (budget 24)"
      per_entry

let test_walk_budget_load () =
  let pm, _ = budget_log () in
  let n = 100_000 in
  let loads () =
    for i = 0 to n - 1 do
      ignore (Pmem.load_int pm (8 * (i land 4095)))
    done
  in
  loads ();
  (* the measurement's own boxed floats, counted once and taken off *)
  let overhead = minor_words_of (fun () -> ()) in
  let per_load = (minor_words_of loads -. overhead) /. float_of_int n in
  if per_load > 2.0 then
    Alcotest.failf "Pmem.load_int: %.2f minor words per call (budget 2)"
      per_load

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
  let index = Log_arena.Lww.create () in
  let max_ts, records, _, tail =
    Log_arena.recover_collect pm ~head_slot ~block_bytes:bb ~index
  in
  Alcotest.(check (pair int int)) "recover_collect stops too" (21, 12)
    (max_ts, records);
  Alcotest.(check (option (pair int int))) "cell 8 keeps its newest value"
    (Some (10, 10)) (Log_arena.Lww.find index 8);
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
          QCheck_alcotest.to_alcotest prop_crc_detects_flip;
        ] );
      ( "write set",
        [
          Alcotest.test_case "first/order semantics" `Quick
            test_write_set_first_and_order;
          Alcotest.test_case "clear after a 65,536-cell tx" `Quick
            test_write_set_clear_after_big;
          QCheck_alcotest.to_alcotest prop_write_set_model;
        ] );
      ( "reset",
        [
          Alcotest.test_case "cost independent of past write sets" `Quick
            test_reset_history_independent;
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
          Alcotest.test_case "recover_collect last-writer-wins" `Quick
            test_recover_collect_last_writer_wins;
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
        ] );
      ( "lww table",
        [
          QCheck_alcotest.to_alcotest prop_lww_model;
          QCheck_alcotest.to_alcotest prop_collect_merges_logs;
        ] );
      ( "walk budget",
        [
          Alcotest.test_case "recover_collect <= 10 words/entry" `Quick
            test_walk_budget_collect;
          Alcotest.test_case "compact <= 24 words/scanned entry" `Quick
            test_walk_budget_compact;
          Alcotest.test_case "Pmem.load_int <= 2 words/call" `Quick
            test_walk_budget_load;
        ] );
    ]
