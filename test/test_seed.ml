(* Hash-seed independence.  The transaction layers issue every device
   operation in program, timestamp or first-insert order, never in a
   hash table's bucket order.  After [Hashtbl.randomize] every table
   created gets a fresh random seed, so a path that iterated one would
   order its stores, flushes or log entries differently from run to
   run, and the device's counters (its modelled time above all) would
   differ.  Each path below runs 8 times on a freshly built, identical
   image and must leave identical device counters every time.  A redo
   commit's stores all hit the cache, so no counter sees their order;
   for SPHT and HOOP the dirty words at every crash point of one commit
   must be identical too.  Randomization is process-wide, hence an
   executable of its own. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn
open Specpmt_backends
open Specpmt_hwtxn

let runs = 8

(* the device counters [f] adds to [pm] *)
let measure pm f =
  let before = Stats.copy (Pmem.stats pm) in
  f ();
  Stats.diff before (Pmem.stats pm)

let pp_stats ppf (s : Stats.t) =
  Fmt.pf ppf "%.1f ns, %d stores, %d clwbs, %d fences, %d write lines"
    s.Stats.ns s.Stats.stores s.Stats.clwbs s.Stats.fences
    s.Stats.pm_write_lines

(* [run] returns a run's device counters and, where no counter sees the
   order, the dirty words at each crash point of a commit *)
let same (run : unit -> Stats.t * Addr.t list list) () =
  let s1, c1 = run () in
  for i = 2 to runs do
    let s, c = run () in
    if s <> s1 then
      Alcotest.failf "run %d: %a; run 1: %a" i pp_stats s pp_stats s1;
    if c <> c1 then
      Alcotest.failf "run %d: the crash states of a commit differ from run 1"
        i
  done

let fresh () =
  let pm = Pmem.create ~seed:5 Config.small in
  (pm, Heap.create pm)

(* [txs] transactions of eight distinct cells over [cells] cells of
   [base], transaction [i] on core [i mod cores], each reading a cell
   first *)
let churn ?(cores = 1) (run : int -> (Ctx.ctx -> unit) -> unit) base ~cells
    ~txs =
  for i = 0 to txs - 1 do
    run (i mod cores) (fun ctx ->
        ignore (ctx.Ctx.read (base + (i * 5 mod cells * 8)));
        for j = 0 to 7 do
          ctx.Ctx.write
            (base + (((i * 7) + (j * 13)) mod cells * 8))
            ((i * 8) + j + 1)
        done)
  done

let one (b : Ctx.backend) _ f = b.Ctx.run_tx f

let replay () =
  let pm, _, heads =
    Testlib.replay_image ~head_slot:20 ~block_bytes:512 ~logs:3
  in
  let replay () = ignore (Log_arena.replay pm ~block_bytes:512 heads) in
  (measure pm replay, [])

(* a three-thread SpecSPMT pool's Coalesce recovery: the heap walks,
   one gather over the three logs, the line sort and the write-back, and
   the three reattaches *)
let coalesce_pool () =
  let pm, heap = fresh () in
  let mt = Spec_mt.create heap ~threads:3 in
  let base = Heap.alloc heap (1024 * 8) in
  churn ~cores:3
    (fun i f -> (Spec_mt.thread mt i).Ctx.run_tx f)
    base ~cells:1024 ~txs:90;
  Pmem.crash_with pm ~persist:(fun a -> a land 64 = 0);
  (measure pm (fun () -> Spec_mt.recover mt), [])

let switch_out () =
  let pm, heap = fresh () in
  let b, rt = Spec_soft.create heap Spec_soft.default_params in
  let base = Heap.alloc heap (256 * 8) in
  churn (one b) base ~cells:256 ~txs:60;
  (measure pm (fun () -> ignore (Spec_soft.switch_out rt)), [])

let spechpmt_pool () =
  let pm, heap = fresh () in
  let pool = Spec_hw.Mt.create heap ~threads:3 in
  let base = Heap.alloc heap (1024 * 8) in
  churn ~cores:3
    (fun i f -> (Spec_hw.Mt.thread pool i).Ctx.run_tx f)
    base ~cells:1024 ~txs:90;
  Pmem.crash_with pm ~persist:(fun a -> a land 64 = 0);
  (measure pm (fun () -> Spec_hw.Mt.recover pool), [])

let hashlog () =
  let pm, heap = fresh () in
  let b = Registry.create heap Registry.Hashlog in
  let base = Heap.alloc heap (256 * 8) in
  churn (one b) base ~cells:256 ~txs:60;
  Pmem.crash_with pm ~persist:(fun a -> a land 64 = 0);
  (measure pm b.Ctx.recover, [])

let redo (create : Heap.t -> Ctx.backend) () =
  let pm, heap = fresh () in
  let b = create heap in
  (pm, b, Heap.alloc heap (256 * 8))

(* the counters of 60 commits and a drain, and the dirty words at each
   crash point of one eight-write transaction *)
let commits_and_drain create () =
  let pm, b, base = redo create () in
  let stats =
    measure pm (fun () ->
        churn (one b) base ~cells:256 ~txs:60;
        b.Ctx.drain ())
  in
  let rec states k acc =
    let pm, b, base = redo create () in
    Pmem.set_fuse pm (Some k);
    match churn (one b) base ~cells:256 ~txs:1 with
    | () -> List.rev acc
    | exception Pmem.Crash -> states (k + 1) (Pmem.dirty_words pm :: acc)
  in
  (stats, states 1 [])

(* [Pbtree.check] audits right links level by level from the root: with
   one link broken at depth 1 and one at depth 2 it names the depth-1
   node every time, whatever order a hash table would have given the
   levels *)
let pbtree_check_depth_order () =
  let open Specpmt_pstruct in
  let pm, heap = fresh () in
  let b = Registry.create heap Registry.Raw in
  let t = b.Ctx.run_tx (fun ctx -> Pbtree.create ~order:4 ctx ()) in
  for k = 0 to 60 do
    b.Ctx.run_tx (fun ctx -> Pbtree.insert ctx t k k)
  done;
  let peek = Ctx.peek_ctx pm in
  Alcotest.(check bool) "three levels or more" true (Pbtree.height peek t >= 3);
  (* node layout [meta; high; right; keys[4]; payloads[4]] *)
  let child n = peek.Ctx.read (n + 24 + (8 * 4)) in
  let d1 = child (peek.Ctx.read (Pbtree.header t + 8)) in
  let d2 = child d1 in
  Pmem.store_int pm (d1 + 16) 8;
  Pmem.store_int pm (d2 + 16) 8;
  let prefix = Fmt.str "Pbtree.check: node %#x (depth 1)" d1 in
  for _ = 1 to 20 do
    match Pbtree.check peek t with
    | () -> Alcotest.fail "check passed a broken right link"
    | exception Failure msg ->
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "check named %S, not the depth-1 node" msg
  done

let spht h = Registry.create h Registry.Spht
let hoop h = Hw_registry.create h Hw_registry.Hoop

let () =
  Hashtbl.randomize ();
  Alcotest.run "seed"
    [
      ( "hash-seed independence",
        [
          Alcotest.test_case "Log_arena.replay, three logs" `Quick
            (same replay);
          Alcotest.test_case "SpecSPMT three-thread Coalesce recovery" `Quick
            (same coalesce_pool);
          Alcotest.test_case "Spec_soft.switch_out" `Quick (same switch_out);
          Alcotest.test_case "SpecHPMT three-core recovery" `Quick
            (same spechpmt_pool);
          Alcotest.test_case "Spec-hashlog recovery" `Quick (same hashlog);
          Alcotest.test_case "SPHT commits and drain" `Quick
            (same (commits_and_drain spht));
          Alcotest.test_case "HOOP commits and drain" `Quick
            (same (commits_and_drain hoop));
          Alcotest.test_case "Pbtree.check audits levels in depth order"
            `Quick pbtree_check_depth_order;
        ] );
    ]
