open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn
open Specpmt_hwsim
open Specpmt_hwtxn

let mk_pool ?(seed = 5) ?(crash_prob = 0.5) () =
  let pm =
    Pmem.create ~seed { Config.small with crash_word_persist_prob = crash_prob }
  in
  (pm, Heap.create pm)

let small_spec ?(data_persist = false) heap =
  Spec_hw.create heap
    { Spec_hw.hw = Hwconfig.small; data_persist; hotness = Spec_hw.Tlb_counters }

let create kind heap =
  match kind with
  | Hw_registry.Spec_hw -> fst (small_spec heap)
  | Hw_registry.Spec_hw_dp -> fst (small_spec ~data_persist:true heap)
  | k -> Hw_registry.create heap k

let mk_kind ?seed ?crash_prob kind =
  let pm, heap = mk_pool ?seed ?crash_prob () in
  (pm, heap, create kind heap)

let recoverable =
  [ Hw_registry.Ede; Hw_registry.Hoop; Hw_registry.Spec_hw_dp; Hw_registry.Spec_hw ]

(* shared durability checks, mirroring the software suite *)

let test_committed_durable kind () =
  let pm, heap, b = mk_kind kind in
  let base, outcome =
    Testlib.run_with_crash pm heap b ~cells:8 ~fuse:None
      [ [ (0, 11); (1, 22) ]; [ (0, 33) ] ]
  in
  Alcotest.(check int) "both committed" 2 outcome.Testlib.committed;
  Pmem.crash pm;
  b.Ctx.recover ();
  let cells = Testlib.read_cells pm base 8 in
  Alcotest.(check int) "cell 0" 33 cells.(0);
  Alcotest.(check int) "cell 1" 22 cells.(1)

let test_uncommitted_revoked kind () =
  let pm, heap, b = mk_kind ~crash_prob:1.0 kind in
  let base = Heap.alloc heap (8 * 8) in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 7 do
        ctx.Ctx.write (base + (i * 8)) (100 + i)
      done);
  (try
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write base 999;
         ctx.Ctx.write (base + 8) 888;
         Pmem.set_fuse pm (Some 1);
         ctx.Ctx.write (base + 16) 777)
   with Pmem.Crash -> ());
  Pmem.crash pm;
  b.Ctx.recover ();
  let cells = Testlib.read_cells pm base 8 in
  for i = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "cell %d" i) (100 + i) cells.(i)
  done

let prop_atomic_durability kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "atomic durability: %s (hw)" (Hw_registry.name kind))
    ~count:60
    QCheck.(triple small_nat small_nat (int_bound 10000))
    (fun (seed, fuse_seed, salt) ->
      let cells = 12 and txs = 8 and max_writes = 6 in
      let rand = Random.State.make [| seed; salt; 23 |] in
      let program = Testlib.gen_program ~cells ~txs ~max_writes rand in
      let states = Testlib.reference ~cells program in
      let pm, heap =
        mk_pool ~seed:(salt + 2)
          ~crash_prob:(float_of_int (seed mod 11) /. 10.0)
          ()
      in
      let b = create kind heap in
      let fuse = 1 + ((fuse_seed * 41) + salt) mod 4000 in
      let base, outcome =
        Testlib.run_with_crash pm heap b ~cells ~fuse:(Some fuse) program
      in
      if outcome.Testlib.crashed then begin
        Pmem.crash pm;
        b.Ctx.recover ()
      end;
      let recovered = Testlib.read_cells pm base cells in
      let ok = Testlib.check_recovered ~states ~outcome recovered in
      if not ok then
        QCheck.Test.fail_reportf
          "not atomic: committed=%d crashed=%b@ recovered=%a"
          outcome.Testlib.committed outcome.Testlib.crashed Testlib.pp_cells
          recovered;
      ok)

let test_empty_tx_between_commits kind () =
  let pm, heap, b = mk_kind ~seed:31 kind in
  let base = Heap.alloc heap 64 in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 1);
  let v = b.Ctx.run_tx (fun ctx -> ctx.Ctx.read base) in
  Alcotest.(check int) "read-only tx sees data" 1 v;
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 2);
  Pmem.crash pm;
  b.Ctx.recover ();
  Alcotest.(check int) "commit after read-only tx recovered" 2
    (Pmem.peek_volatile_int pm base)

(* hardware SpecPMT specifics *)

let test_hot_transition () =
  let _, heap = mk_pool () in
  let b, t = small_spec heap in
  let base = Heap.alloc heap 4096 in
  let page = Addr.page_index base in
  Alcotest.(check bool) "cold at first" false (Spec_hw.is_hot_page t ~page);
  (* hammer the same page past the (small-config) threshold of 3 *)
  for round = 0 to 4 do
    b.Ctx.run_tx (fun ctx -> ctx.Ctx.write (base + (round * 8)) round)
  done;
  Alcotest.(check bool) "hot after threshold" true (Spec_hw.is_hot_page t ~page);
  Alcotest.(check int) "one bulk copy" 1 (Spec_hw.transitions t);
  Alcotest.(check bool) "hot writes recorded" true (Spec_hw.hot_writes t > 0)

let test_hot_page_data_not_flushed () =
  let pm, heap = mk_pool () in
  let b, t = small_spec heap in
  let base = Heap.alloc heap 4096 in
  for round = 0 to 4 do
    b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base round)
  done;
  assert (Spec_hw.is_hot_page t ~page:(Addr.page_index base));
  (* once hot, a transaction's data lines are not flushed: only the log
     record lines are.  Count clwbs per tx. *)
  let c0 = (Pmem.stats pm).Stats.clwbs in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 99);
  let spec_clwbs = (Pmem.stats pm).Stats.clwbs - c0 in
  (* the record is one line + possibly a block header: no 64-line page
     flushes, no data-line flush *)
  Alcotest.(check bool)
    (Printf.sprintf "few flushes (%d)" spec_clwbs)
    true (spec_clwbs <= 4)

let test_cold_page_stays_cold () =
  let _, heap = mk_pool () in
  let b, t = small_spec heap in
  let base = Heap.alloc heap (64 * 4096) in
  (* touch many different pages once each: never hot *)
  for i = 0 to 40 do
    b.Ctx.run_tx (fun ctx -> ctx.Ctx.write (base + (i * 4096)) i)
  done;
  Alcotest.(check int) "no transitions" 0 (Spec_hw.transitions t);
  Alcotest.(check int) "all cold writes" 41 (Spec_hw.cold_writes t)

let test_epochs_and_reclamation_bound_log () =
  let pm, heap = mk_pool ~crash_prob:0.3 () in
  let b, t = small_spec heap in
  let base = Heap.alloc heap (2 * 4096) in
  for round = 0 to 600 do
    b.Ctx.run_tx (fun ctx ->
        for i = 0 to 7 do
          ctx.Ctx.write (base + (i * 8)) (round + i)
        done)
  done;
  Alcotest.(check bool) "epochs advanced" true (Spec_hw.epochs_started t > 1);
  Alcotest.(check bool) "reclamation ran" true (Spec_hw.reclaims t > 0);
  Alcotest.(check bool)
    (Printf.sprintf "log bounded (%d)" (b.Ctx.log_footprint ()))
    true
    (b.Ctx.log_footprint ()
    <= Hwconfig.small.Hwconfig.log_budget_bytes + (4 * Hwconfig.small.Hwconfig.spec_block_bytes));
  (* and the state is still recoverable afterwards *)
  Pmem.crash pm;
  b.Ctx.recover ();
  let cells = Testlib.read_cells pm base 8 in
  for i = 0 to 7 do
    Alcotest.(check int) "freshest committed value" (600 + i) cells.(i)
  done

(* the stale-record hazard: a page goes hot, its epoch is reclaimed (page
   persisted, records dropped), the page is then updated cold and the
   update commits; a later crash must keep the cold value *)
let test_reclaimed_page_cold_update_survives () =
  let pm, heap = mk_pool ~crash_prob:1.0 () in
  let b, t = small_spec heap in
  let hot_base = Heap.alloc heap 4096 in
  let filler = Heap.alloc heap (64 * 4096) in
  (* make hot_base's page hot *)
  for round = 0 to 5 do
    b.Ctx.run_tx (fun ctx -> ctx.Ctx.write hot_base (100 + round))
  done;
  assert (Spec_hw.is_hot_page t ~page:(Addr.page_index hot_base));
  (* force epoch churn until the page's records are reclaimed *)
  let round = ref 0 in
  while Spec_hw.is_hot_page t ~page:(Addr.page_index hot_base) && !round < 5000 do
    b.Ctx.run_tx (fun ctx ->
        ctx.Ctx.write (filler + (!round mod (64 * 512) * 8)) !round);
    incr round
  done;
  Alcotest.(check bool) "page eventually reclaimed to cold" false
    (Spec_hw.is_hot_page t ~page:(Addr.page_index hot_base));
  (* a cold committed update on the once-hot page *)
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write hot_base 4242);
  Pmem.crash pm;
  b.Ctx.recover ();
  Alcotest.(check int) "cold value not shadowed by stale records" 4242
    (Pmem.peek_volatile_int pm hot_base)

let test_ede_fence_free_logging () =
  let pm, heap, b = mk_kind Hw_registry.Ede in
  let base = Heap.alloc heap (16 * 8) in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 15 do
        ctx.Ctx.write (base + (i * 8)) i
      done);
  let f0 = (Pmem.stats pm).Stats.fences in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 15 do
        ctx.Ctx.write (base + (i * 8)) (i * 3)
      done);
  (* one drain at commit, nothing per update *)
  Alcotest.(check int) "EDE: one fence per tx" 1 ((Pmem.stats pm).Stats.fences - f0)

let test_spec_hw_one_fence_no_reclaim () =
  let pm, heap = mk_pool () in
  let b, _ = small_spec heap in
  let base = Heap.alloc heap (4 * 8) in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 1);
  let f0 = (Pmem.stats pm).Stats.fences in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 3 do
        ctx.Ctx.write (base + (i * 8)) i
      done);
  Alcotest.(check int) "one fence" 1 ((Pmem.stats pm).Stats.fences - f0)

(* TLB unit behaviour *)

let test_tlb_eviction_drops_state () =
  let pm = Pmem.create Config.small in
  let tlb = Tlb.create Hwconfig.small pm in
  let e = Tlb.access tlb ~page:1 in
  e.Tlb.epoch_bit <- true;
  e.Tlb.cnt_eid <- 3;
  (* small config capacity is 16: flood it *)
  for p = 100 to 140 do
    ignore (Tlb.access tlb ~page:p)
  done;
  Alcotest.(check bool) "evictions happened" true (Tlb.evictions tlb > 0);
  match Tlb.find tlb ~page:1 with
  | None -> ()
  | Some e' ->
      Alcotest.(check bool) "if resident, state intact" true e'.Tlb.epoch_bit

let test_tlb_clear_epoch_selective () =
  let pm = Pmem.create Config.small in
  let tlb = Tlb.create Hwconfig.small pm in
  let e1 = Tlb.access tlb ~page:1 in
  e1.Tlb.epoch_bit <- true;
  e1.Tlb.cnt_eid <- 2;
  let e2 = Tlb.access tlb ~page:2 in
  e2.Tlb.epoch_bit <- true;
  e2.Tlb.cnt_eid <- 3;
  let n = Tlb.clear_epoch tlb ~eid:2 in
  Alcotest.(check int) "one cleared" 1 n;
  Alcotest.(check bool) "page 1 cold" false e1.Tlb.epoch_bit;
  Alcotest.(check bool) "page 2 still hot" true e2.Tlb.epoch_bit

(* L1 tag bits (PBit/LogBit, Figure 9) *)

let test_l1tags_commit_scan () =
  let evicted = ref 0 in
  let l1 = L1tags.create ~lines:4 ~on_tx_evict:(fun _ -> incr evicted) in
  let e1 = L1tags.touch l1 ~line:0 in
  e1.L1tags.tx_dirty <- true;
  e1.L1tags.logbit <- true;
  e1.L1tags.pbit <- true;
  let e2 = L1tags.touch l1 ~line:64 in
  e2.L1tags.tx_dirty <- true;
  e2.L1tags.logbit <- true;
  let seen = ref 0 in
  L1tags.scan_tx_dirty l1 (fun _ -> incr seen);
  Alcotest.(check int) "scan visits tx-dirty lines" 2 !seen;
  L1tags.end_tx l1;
  Alcotest.(check bool) "LogBit cleared on commit" false e1.L1tags.logbit;
  Alcotest.(check bool) "PBit survives commit" true e1.L1tags.pbit;
  (* no tx-dirty lines remain: capacity evictions are silent *)
  for i = 2 to 10 do
    ignore (L1tags.touch l1 ~line:(i * 64))
  done;
  Alcotest.(check int) "no tx evictions after commit" 0 !evicted

let test_l1tags_tx_overflow_callback () =
  let evicted = ref [] in
  let l1 =
    L1tags.create ~lines:2 ~on_tx_evict:(fun e ->
        evicted := e.L1tags.line :: !evicted)
  in
  List.iter
    (fun line ->
      let e = L1tags.touch l1 ~line in
      e.L1tags.tx_dirty <- true)
    [ 0; 64; 128; 192 ];
  Alcotest.(check bool) "overflowing tx-dirty lines reported" true
    (List.length !evicted >= 2)

let test_spec_hw_l1_overflow_logged () =
  (* a transaction bigger than the (tiny, 16-line) L1 must overflow and
     still commit and recover correctly *)
  let pm, heap = mk_pool ~crash_prob:0.5 () in
  let b, t = small_spec heap in
  let base = Heap.alloc heap 4096 in
  (* make the page hot first *)
  for r = 0 to 4 do
    b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base r)
  done;
  (* one transaction touching 40 distinct lines *)
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 39 do
        ctx.Ctx.write (base + (i * 64)) (1000 + i)
      done);
  Alcotest.(check bool) "overflow happened" true
    (Spec_hw.l1_tx_evictions t > 0);
  Pmem.crash pm;
  b.Ctx.recover ();
  for i = 0 to 39 do
    Alcotest.(check int)
      (Printf.sprintf "cell %d recovered" i)
      (1000 + i)
      (Pmem.peek_volatile_int pm (base + (i * 64)))
  done

let test_software_sampled_hotness () =
  (* the sampled detector must still find the hot page and keep the same
     crash-consistency guarantees *)
  let pm, heap = mk_pool ~crash_prob:1.0 () in
  let b, t =
    Spec_hw.create heap
      {
        Spec_hw.hw = Hwconfig.small;
        data_persist = false;
        hotness = Spec_hw.Software_sampled { decay_period = 1000 };
      }
  in
  let base = Heap.alloc heap 4096 in
  for round = 0 to 5 do
    b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base (100 + round))
  done;
  Alcotest.(check bool) "hot detected by sampling" true
    (Spec_hw.is_hot_page t ~page:(Addr.page_index base));
  (try
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write base 999;
         Pmem.set_fuse pm (Some 1);
         ctx.Ctx.write (base + 8) 888)
   with Pmem.Crash -> ());
  Pmem.crash pm;
  b.Ctx.recover ();
  Alcotest.(check int) "revoked under sampled hotness" 105
    (Pmem.peek_volatile_int pm base)

(* the fence-free NT undo log *)

let test_nt_log_roundtrip () =
  let pm, heap = mk_pool ~crash_prob:0.0 () in
  let log = Nt_log.create heap ~region_slot:Hw_slots.ede_region ~capacity:8 in
  Nt_log.append log ~addr:100 ~old:1;
  Nt_log.append log ~addr:200 ~old:2;
  (* entries are persistent with no fence at all *)
  Pmem.crash pm;
  let log2 = Nt_log.attach heap ~region_slot:Hw_slots.ede_region in
  Alcotest.(check (list (pair int int)))
    "entries persistent without fences"
    [ (100, 1); (200, 2) ]
    (Nt_log.scan log2)

let test_nt_log_truncation_hides_stale_entries () =
  let pm, heap = mk_pool ~crash_prob:0.0 () in
  let log = Nt_log.create heap ~region_slot:Hw_slots.ede_region ~capacity:8 in
  Nt_log.append log ~addr:100 ~old:1;
  Nt_log.append log ~addr:200 ~old:2;
  Nt_log.append log ~addr:300 ~old:3;
  Nt_log.truncate log;
  (* a shorter next transaction: stale entries 2 and 3 still sit in the
     region but carry the old generation *)
  Nt_log.append log ~addr:400 ~old:4;
  Pmem.crash pm;
  let log2 = Nt_log.attach heap ~region_slot:Hw_slots.ede_region in
  Alcotest.(check (list (pair int int)))
    "only current-generation entries" [ (400, 4) ] (Nt_log.scan log2)

let test_nt_log_growth () =
  let _, heap = mk_pool ~crash_prob:0.0 () in
  let log = Nt_log.create heap ~region_slot:Hw_slots.ede_region ~capacity:2 in
  for i = 1 to 20 do
    Nt_log.append log ~addr:(i * 8) ~old:i
  done;
  Alcotest.(check int) "all entries after growth" 20
    (List.length (Nt_log.scan log))

(* A reattached log takes its capacity from its region's allocation
   header (DESIGN.md §8 bug 6): it appends in place up to that capacity,
   then grows, and every entry stays readable. *)
let test_nt_log_reattach_capacity () =
  let pm, heap = mk_pool ~crash_prob:0.0 () in
  let log = Nt_log.create heap ~region_slot:Hw_slots.ede_region ~capacity:4 in
  Nt_log.append log ~addr:100 ~old:1;
  Pmem.crash pm;
  let log2 = Nt_log.attach heap ~region_slot:Hw_slots.ede_region in
  Alcotest.(check (list (pair int int)))
    "entry readable after the crash" [ (100, 1) ] (Nt_log.scan log2);
  Nt_log.truncate log2;
  let footprint = Nt_log.footprint log2 in
  let capacity = (footprint - 8) / 24 in
  Alcotest.(check bool) "at least the 4 entries created" true (capacity >= 4);
  let entries = List.init ((2 * capacity) + 1) (fun i -> ((i + 1) * 8, i)) in
  List.iteri
    (fun i (addr, old) ->
      Nt_log.append log2 ~addr ~old;
      if i = capacity - 1 then
        Alcotest.(check int)
          "in place up to the region's capacity" footprint
          (Nt_log.footprint log2))
    entries;
  Alcotest.(check bool) "grown" true (Nt_log.footprint log2 > footprint);
  Alcotest.(check (list (pair int int))) "every entry" entries
    (Nt_log.scan log2)

(* the 1,025th first write of a transaction doubles the undo log *)

let test_ede_growth_crash () =
  Testlib.sweep_growth_crashes ~grow_at:1024 ~stride:7 (fun () ->
      let pm, heap = mk_pool ~seed:3 () in
      let b = Hw_registry.create heap Hw_registry.Ede in
      let base = Heap.alloc heap (1030 * 8) in
      (pm, b, Array.init 1030 (fun i -> base + (i * 8))))

(* one write per page: no page reaches the hot threshold, so every write
   takes the cold path's undo log *)
let test_spec_hw_growth_crash () =
  Testlib.sweep_growth_crashes ~grow_at:1024 ~stride:7 (fun () ->
      let pm =
        Pmem.create ~seed:3 { Config.small with mem_size = 8 * 1024 * 1024 }
      in
      let heap = Heap.create pm in
      let b = fst (Spec_hw.create heap Spec_hw.default_params) in
      let base = Heap.alloc heap (1030 * Addr.page_size) in
      (pm, b, Array.init 1030 (fun i -> base + (i * Addr.page_size))))

(* multi-core hardware SpecPMT (Section 5.2.2) *)

let mt_params =
  { Spec_hw.hw = Hwconfig.small; data_persist = false; hotness = Spec_hw.Tlb_counters }

let test_mt_interleaved_recovery () =
  let pm, heap = mk_pool ~seed:81 ~crash_prob:0.6 () in
  let pool = Spec_hw.Mt.create ~params:mt_params heap ~threads:3 in
  let base = Heap.alloc heap (4 * 8) in
  (Spec_hw.Mt.thread pool 0).Ctx.run_tx (fun ctx ->
      for i = 0 to 3 do
        ctx.Ctx.write (base + (i * 8)) 0
      done);
  let order = [ 0; 1; 2; 2; 1; 0; 1; 2; 0; 2 ] in
  List.iteri
    (fun round th ->
      (Spec_hw.Mt.thread pool th).Ctx.run_tx (fun ctx ->
          ctx.Ctx.write base ((round * 10) + th);
          ctx.Ctx.write (base + 8 + (th * 8)) round))
    order;
  Pmem.crash pm;
  Spec_hw.Mt.recover pool;
  (* last write to the shared cell: round 9, thread 2 *)
  Alcotest.(check int) "global timestamp order wins" 92
    (Pmem.peek_volatile_int pm base);
  Alcotest.(check int) "thread 0 cell" 8 (Pmem.peek_volatile_int pm (base + 8));
  Alcotest.(check int) "thread 1 cell" 6 (Pmem.peek_volatile_int pm (base + 16));
  Alcotest.(check int) "thread 2 cell" 9 (Pmem.peek_volatile_int pm (base + 24));
  (* the pool keeps working after recovery *)
  (Spec_hw.Mt.thread pool 1).Ctx.run_tx (fun ctx -> ctx.Ctx.write base 777);
  Pmem.crash pm;
  Spec_hw.Mt.recover pool;
  Alcotest.(check int) "post-recovery commit" 777
    (Pmem.peek_volatile_int pm base)

(* every core's [recover] is the pool's: recovering through one core must
   replay every core's log and rebuild the shared hotness table and
   coordinator whole.  Each core makes its own page hot, so its last
   commits live only in its speculative log (nothing leaks at the
   crash). *)
let test_mt_member_recover_is_pool_recover () =
  let pm, heap = mk_pool ~seed:85 ~crash_prob:0.0 () in
  let pool = Spec_hw.Mt.create ~params:mt_params heap ~threads:2 in
  let x = Heap.alloc heap 8 in
  let y = Heap.alloc heap 8192 + 4096 in
  let commit th a v =
    (Spec_hw.Mt.thread pool th).Ctx.run_tx (fun ctx -> ctx.Ctx.write a v)
  in
  for r = 1 to 8 do
    commit 0 x r;
    commit 1 y (100 + r)
  done;
  let hot th a =
    Spec_hw.is_hot_page (Spec_hw.Mt.runtime pool th) ~page:(Addr.page_index a)
  in
  Alcotest.(check (list bool)) "both pages hot" [ true; true ]
    [ hot 0 x; hot 1 y ];
  Pmem.crash pm;
  (Spec_hw.Mt.thread pool 1).Ctx.recover ();
  Alcotest.(check (pair int int)) "both cores' commits survive" (8, 108)
    (Pmem.peek_volatile_int pm x, Pmem.peek_volatile_int pm y);
  Alcotest.(check (list bool)) "both pages hot again" [ true; true ]
    [ hot 0 x; hot 1 y ];
  Alcotest.(check (list (pair int int))) "one fresh epoch per core"
    [ (0, 1); (1, 1) ]
    (List.sort compare
       (List.map
          (fun s -> (s.Epoch_coord.thread, s.Epoch_coord.eid))
          (Epoch_coord.spans (Spec_hw.Mt.coordinator pool))));
  commit 0 x 9;
  Pmem.crash pm;
  (Spec_hw.Mt.thread pool 0).Ctx.recover ();
  Alcotest.(check (pair int int)) "and again through core 0" (9, 108)
    (Pmem.peek_volatile_int pm x, Pmem.peek_volatile_int pm y)

(* Figure 11, live: thread 1 holds an epoch that started before thread
   0's epoch ended; thread 0's reclamation must be deferred, so that a
   crash interrupting thread 1's transaction can still be revoked *)
let test_mt_figure11_deferred_reclaim () =
  let pm, heap = mk_pool ~seed:83 ~crash_prob:1.0 () in
  let pool = Spec_hw.Mt.create ~params:mt_params heap ~threads:2 in
  let x = Heap.alloc heap 8 in
  let t0 = Spec_hw.Mt.thread pool 0 and t1 = Spec_hw.Mt.thread pool 1 in
  (* both threads speculatively log x's page (w1, w2 of the figure) *)
  for r = 0 to 5 do
    t0.Ctx.run_tx (fun ctx -> ctx.Ctx.write x (100 + r))
  done;
  t1.Ctx.run_tx (fun ctx -> ctx.Ctx.write x 200);
  assert (Spec_hw.is_hot_page (Spec_hw.Mt.runtime pool 0) ~page:(Addr.page_index x));
  (* drive thread 0 through epochs and reclamations by filling its log;
     thread 1's first epoch is still open the whole time *)
  let filler = Heap.alloc heap (32 * 4096) in
  for r = 0 to 2000 do
    t0.Ctx.run_tx (fun ctx ->
        for i = 0 to 6 do
          ctx.Ctx.write (filler + (((r * 13) + (i * 97)) mod (32 * 512) * 8)) r
        done)
  done;
  (* thread 1's first epoch is still open and started before every epoch
     thread 0 closed: ALL of thread 0's reclamations must have been
     deferred — exactly the Figure 11 protection *)
  Alcotest.(check int) "reclamation deferred while an older epoch is open"
    0
    (Spec_hw.reclaims (Spec_hw.Mt.runtime pool 0));
  Alcotest.(check bool) "x's page still hot" true
    (Spec_hw.is_hot_page (Spec_hw.Mt.runtime pool 1) ~page:(Addr.page_index x));
  (* once thread 1 moves on to a new epoch, thread 0's reclamation can
     proceed *)
  for r = 0 to 2000 do
    t1.Ctx.run_tx (fun ctx -> ctx.Ctx.write x (300 + (r mod 7)))
  done;
  for r = 0 to 400 do
    t0.Ctx.run_tx (fun ctx ->
        for i = 0 to 6 do
          ctx.Ctx.write (filler + (((r * 29) + (i * 83)) mod (32 * 512) * 8)) r
        done)
  done;
  Alcotest.(check bool) "reclamation resumes after the epoch closes" true
    (Spec_hw.reclaims (Spec_hw.Mt.runtime pool 0) > 0);
  (* refresh w2 so the revocation test has a current committed value *)
  t1.Ctx.run_tx (fun ctx -> ctx.Ctx.write x 200);
  (* w3: thread 1 crashes mid-transaction on x; the speculative records
     must still revoke it — the exact corruption Figure 11 warns about *)
  (try
     t1.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write x 999;
         Pmem.set_fuse pm (Some 1);
         ignore (ctx.Ctx.read x))
   with Pmem.Crash -> ());
  Pmem.crash pm;
  Spec_hw.Mt.recover pool;
  Alcotest.(check int) "w3 revoked to w2" 200 (Pmem.peek_volatile_int pm x)

let prop_mt_hw_atomic_durability =
  QCheck.Test.make ~name:"atomic durability: SpecHPMT Mt (3 cores)" ~count:30
    QCheck.(triple small_nat small_nat (int_bound 10000))
    (fun (seed, fuse_seed, salt) ->
      let cells = 10 in
      let rand = Random.State.make [| seed; salt; 91 |] in
      let pm, heap =
        mk_pool ~seed:(salt + 5)
          ~crash_prob:(float_of_int (seed mod 11) /. 10.0)
          ()
      in
      let pool = Spec_hw.Mt.create ~params:mt_params heap ~threads:3 in
      let base = Heap.alloc heap (cells * 8) in
      (Spec_hw.Mt.thread pool 0).Ctx.run_tx (fun ctx ->
          for i = 0 to cells - 1 do
            ctx.Ctx.write (base + (i * 8)) 0
          done);
      let txs =
        List.init 15 (fun _ ->
            ( Random.State.int rand 3,
              List.init
                (1 + Random.State.int rand 4)
                (fun _ ->
                  (Random.State.int rand cells, Random.State.int rand 100000))
            ))
      in
      let reference = Array.make cells 0 in
      let committed = ref [] in
      Pmem.set_fuse pm (Some (1 + (((fuse_seed * 59) + salt) mod 3000)));
      let crashed =
        try
          List.iter
            (fun (th, writes) ->
              (Spec_hw.Mt.thread pool th).Ctx.run_tx (fun ctx ->
                  List.iter
                    (fun (c, v) -> ctx.Ctx.write (base + (c * 8)) v)
                    writes);
              committed := writes :: !committed)
            txs;
          Pmem.set_fuse pm None;
          false
        with Pmem.Crash -> true
      in
      if crashed then begin
        Pmem.crash pm;
        Spec_hw.Mt.recover pool
      end;
      List.iter
        (fun writes -> List.iter (fun (c, v) -> reference.(c) <- v) writes)
        (List.rev !committed);
      let recovered = Testlib.read_cells pm base cells in
      let matches r = Array.for_all2 (fun a b -> a = b) recovered r in
      let next_ref =
        match List.nth_opt txs (List.length !committed) with
        | Some (_, writes) ->
            let r = Array.copy reference in
            List.iter (fun (c, v) -> r.(c) <- v) writes;
            r
        | None -> reference
      in
      matches reference || matches next_ref)

(* epoch protocol (Section 5.2.2, Figure 11) *)

let test_epoch_protocol_figure11_rejected () =
  (* thread 2's epoch [e] ended, but thread 1 has an active epoch that
     started before [e] ended (it contains w1): reclaiming [e] would lose
     the record needed to revoke w3 *)
  let t1_active =
    {
      Epoch_coord.thread = 1;
      eid = 1;
      start_ts = 0;
      end_ts = None;
      inactive = false;
    }
  in
  let t2_e =
    {
      Epoch_coord.thread = 2;
      eid = 1;
      start_ts = 5;
      end_ts = Some 10;
      inactive = true;
    }
  in
  let all = [ t1_active; t2_e ] in
  Alcotest.(check bool) "figure 11 reclamation rejected" false
    (Epoch_coord.can_reclaim ~all t2_e)

let test_epoch_protocol_accepts_safe () =
  let t2_e =
    {
      Epoch_coord.thread = 2;
      eid = 1;
      start_ts = 5;
      end_ts = Some 10;
      inactive = true;
    }
  in
  let t1_late =
    {
      Epoch_coord.thread = 1;
      eid = 1;
      start_ts = 11;
      end_ts = None;
      inactive = false;
    }
  in
  let all = [ t1_late; t2_e ] in
  Alcotest.(check bool) "safe reclamation accepted" true
    (Epoch_coord.can_reclaim ~all t2_e);
  (* an open epoch is never reclaimable *)
  Alcotest.(check bool) "open epoch not reclaimable" false
    (Epoch_coord.can_reclaim ~all t1_late)

(* property: a reclaimable epoch never overlaps any open or
   younger-started active epoch — the invariant that makes Figure 11's
   corruption impossible *)
let prop_epoch_protocol_safe =
  QCheck.Test.make ~name:"reclaimable epochs never overlap active ones"
    ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 8)
        (quad (int_bound 3) (int_bound 50) (int_bound 50) bool))
    (fun spans ->
      let all =
        List.mapi
          (fun i (thread, a, b, inactive) ->
            let start_ts = min a b and fin = max a b in
            {
              Epoch_coord.thread;
              eid = i;
              start_ts;
              end_ts = (if inactive || fin > start_ts then Some fin else None);
              inactive;
            })
          spans
      in
      List.for_all
        (fun e ->
          (not (Epoch_coord.can_reclaim ~all e))
          || (e.Epoch_coord.inactive
             && e.Epoch_coord.end_ts <> None
             && List.for_all
                  (fun o ->
                    o == e || o.Epoch_coord.inactive
                    || o.Epoch_coord.start_ts
                       > Option.get e.Epoch_coord.end_ts)
                  all))
        all)

(* read-own-writes fast path: HOOP's [tx_read] must not probe the
   redirection buffer while the transaction's write set is empty — the
   [tx.buffer_probes] counter meters the slow path (see the Spht twin
   in test_backends.ml). *)
let test_hoop_readonly_skips_buffer () =
  let _, heap = mk_pool () in
  let b = Hw_registry.create heap Hw_registry.Hoop in
  let base = Heap.alloc heap 64 in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 5);
  let c = Specpmt_obs.Metrics.counter "tx.buffer_probes" in
  let v0 = Specpmt_obs.Metrics.counter_value c in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 9 do
        ignore (ctx.Ctx.read (base + (8 * (i mod 2))))
      done);
  Alcotest.(check int) "read-only tx probes no buffer" v0
    (Specpmt_obs.Metrics.counter_value c);
  b.Ctx.run_tx (fun ctx ->
      ctx.Ctx.write base 9;
      Alcotest.(check int) "reads own write" 9 (ctx.Ctx.read base));
  Alcotest.(check bool) "read-after-write still probes" true
    (Specpmt_obs.Metrics.counter_value c > v0)

(* An aborted HOOP transaction's reads must not reach the next commit:
   [rollback] used to keep its read lines, and the next commit logged
   them into its mapping record (75 stores and 11 clwbs for one write,
   after an abort that read 32 lines). *)
let test_hoop_rollback_drops_read_lines () =
  let pm, heap = mk_pool () in
  let b = Hw_registry.create heap Hw_registry.Hoop in
  let base = Heap.alloc heap (64 * 33) in
  let commit_one v =
    let st = Pmem.stats pm in
    let s0 = st.Stats.stores and c0 = st.Stats.clwbs in
    b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base v);
    let st = Pmem.stats pm in
    (st.Stats.stores - s0, st.Stats.clwbs - c0)
  in
  ignore (commit_one 1);
  (try
     b.Ctx.run_tx (fun ctx ->
         for l = 1 to 32 do
           ignore (ctx.Ctx.read (base + (64 * l)))
         done;
         raise Ctx.Abort)
   with Ctx.Abort -> ());
  Alcotest.(check (pair int int))
    "(stores, clwbs) of a one-write commit after the abort" (7, 2)
    (commit_one 2)

let durability_cases =
  List.concat_map
    (fun kind ->
      let n = Hw_registry.name kind in
      [
        Alcotest.test_case (n ^ ": committed durable") `Quick
          (test_committed_durable kind);
        Alcotest.test_case (n ^ ": uncommitted revoked") `Quick
          (test_uncommitted_revoked kind);
        Alcotest.test_case (n ^ ": abort rolls back") `Quick
          (Testlib.test_abort_rolls_back (create kind));
        Alcotest.test_case (n ^ ": read own writes") `Quick
          (Testlib.test_read_own_writes (create kind));
        Alcotest.test_case (n ^ ": double crash") `Quick
          (Testlib.test_double_crash (create kind));
        Alcotest.test_case (n ^ ": crash drops open writes") `Quick
          (Testlib.test_crash_drops_open_writes (create kind));
        Alcotest.test_case (n ^ ": empty tx between commits") `Quick
          (test_empty_tx_between_commits kind);
        Alcotest.test_case (n ^ ": recovery idempotent") `Quick
          (Testlib.test_recovery_idempotent (create kind));
        Alcotest.test_case (n ^ ": crash during recovery") `Quick
          (Testlib.test_crash_during_recovery (create kind));
      ])
    recoverable

let () =
  Alcotest.run "hwtxn"
    [
      ("durability", durability_cases);
      ( "atomic durability (property)",
        List.map
          (fun k -> QCheck_alcotest.to_alcotest (prop_atomic_durability k))
          recoverable );
      ( "hybrid logging",
        [
          Alcotest.test_case "cold-to-hot transition" `Quick
            test_hot_transition;
          Alcotest.test_case "hot data not flushed" `Quick
            test_hot_page_data_not_flushed;
          Alcotest.test_case "cold pages stay cold" `Quick
            test_cold_page_stays_cold;
          Alcotest.test_case "one fence per tx" `Quick
            test_spec_hw_one_fence_no_reclaim;
          Alcotest.test_case "EDE fence-free logging" `Quick
            test_ede_fence_free_logging;
          Alcotest.test_case "software-sampled hotness (section 6)" `Quick
            test_software_sampled_hotness;
        ] );
      ( "epoch reclamation",
        [
          Alcotest.test_case "epochs bound the log" `Quick
            test_epochs_and_reclamation_bound_log;
          Alcotest.test_case "reclaimed page cold update survives" `Quick
            test_reclaimed_page_cold_update_survives;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "eviction drops state" `Quick
            test_tlb_eviction_drops_state;
          Alcotest.test_case "clearepoch selective" `Quick
            test_tlb_clear_epoch_selective;
        ] );
      ( "l1 tags",
        [
          Alcotest.test_case "commit scan semantics" `Quick
            test_l1tags_commit_scan;
          Alcotest.test_case "overflow callback" `Quick
            test_l1tags_tx_overflow_callback;
          Alcotest.test_case "spec_hw overflow logged + recovers" `Quick
            test_spec_hw_l1_overflow_logged;
        ] );
      ( "nt log",
        [
          Alcotest.test_case "roundtrip, fence-free" `Quick
            test_nt_log_roundtrip;
          Alcotest.test_case "truncation hides stale entries" `Quick
            test_nt_log_truncation_hides_stale_entries;
          Alcotest.test_case "growth" `Quick test_nt_log_growth;
          Alcotest.test_case "reattached log grows past its region" `Quick
            test_nt_log_reattach_capacity;
        ] );
      ( "log growth",
        [
          Alcotest.test_case "EDE: crash inside the growth" `Quick
            test_ede_growth_crash;
          Alcotest.test_case "SpecHPMT: crash inside the growth" `Quick
            test_spec_hw_growth_crash;
        ] );
      ( "multi-core",
        [
          Alcotest.test_case "interleaved recovery by timestamp" `Quick
            test_mt_interleaved_recovery;
          Alcotest.test_case "a core's recover is the pool's" `Quick
            test_mt_member_recover_is_pool_recover;
          Alcotest.test_case "figure 11 live: deferred reclamation" `Quick
            test_mt_figure11_deferred_reclaim;
          QCheck_alcotest.to_alcotest prop_mt_hw_atomic_durability;
        ] );
      ( "epoch protocol",
        [
          Alcotest.test_case "figure 11 rejected" `Quick
            test_epoch_protocol_figure11_rejected;
          Alcotest.test_case "safe reclamation accepted" `Quick
            test_epoch_protocol_accepts_safe;
          QCheck_alcotest.to_alcotest prop_epoch_protocol_safe;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "hoop read-only tx skips the write buffer"
            `Quick test_hoop_readonly_skips_buffer;
          Alcotest.test_case "hoop rollback drops the read lines" `Quick
            test_hoop_rollback_drops_read_lines;
        ] );
    ]
