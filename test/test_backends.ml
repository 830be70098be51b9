open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn
open Specpmt_backends

let recoverable = [ Registry.Pmdk; Registry.Spht; Registry.Spec_dp; Registry.Spec; Registry.Hashlog ]

let mk_backend ?(seed = 11) kind =
  let pm = Pmem.create ~seed Config.small in
  let heap = Heap.create pm in
  (pm, heap, Registry.create heap kind)

(* committed transactions are durable even when nothing forced the data
   itself to the media *)
let test_committed_durable kind () =
  let pm, heap, b = mk_backend kind in
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

(* an interrupted transaction is fully revoked, even when its in-place
   updates leaked to the media before the crash *)
let test_uncommitted_revoked kind () =
  let pm = Pmem.create ~seed:3 { Config.small with crash_word_persist_prob = 1.0 } in
  let heap = Heap.create pm in
  let b = Registry.create heap kind in
  let base = Heap.alloc heap (8 * 8) in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 7 do
        ctx.Ctx.write (base + (i * 8)) (100 + i)
      done);
  (* crash mid-transaction, after its stores have issued *)
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
    Alcotest.(check int) (Printf.sprintf "cell %d restored" i) (100 + i) cells.(i)
  done

(* the headline property: atomic durability under random programs and
   random crash points, with random media leakage *)
let prop_atomic_durability kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "atomic durability: %s" (Registry.name kind))
    ~count:60
    QCheck.(triple small_nat small_nat (int_bound 10000))
    (fun (seed, fuse_seed, salt) ->
      let cells = 12 and txs = 8 and max_writes = 6 in
      let rand = Random.State.make [| seed; salt; 17 |] in
      let program = Testlib.gen_program ~cells ~txs ~max_writes rand in
      let states = Testlib.reference ~cells program in
      let pm =
        Pmem.create ~seed:(salt + 1)
          {
            Config.small with
            crash_word_persist_prob =
              float_of_int (seed mod 11) /. 10.0;
          }
      in
      let heap = Heap.create pm in
      let b = Registry.create heap kind in
      let fuse = 1 + ((fuse_seed * 37) + salt) mod 3000 in
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
          "not atomic: committed=%d crashed=%b@ recovered=%a@ expected %a or \
           %a"
          outcome.Testlib.committed outcome.Testlib.crashed Testlib.pp_cells
          recovered Testlib.pp_cells
          states.(outcome.Testlib.committed)
          Testlib.pp_cells
          (states.(min (outcome.Testlib.committed + 1) txs));
      ok)

(* regression: a read-only transaction between committed ones must not
   truncate the scannable log (a zero-entry record reads like the
   end-of-log sentinel) *)
let test_empty_tx_between_commits kind () =
  let pm, heap, b = mk_backend ~seed:31 kind in
  let base = Heap.alloc heap 64 in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 1);
  let v = b.Ctx.run_tx (fun ctx -> ctx.Ctx.read base) in
  Alcotest.(check int) "read-only tx sees data" 1 v;
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 2);
  Pmem.crash pm;
  b.Ctx.recover ();
  Alcotest.(check int) "commit after read-only tx recovered" 2
    (Pmem.peek_volatile_int pm base)

(* SpecPMT-specific behaviours *)

let test_spec_fence_economy () =
  (* the point of the paper: SpecPMT uses one fence per transaction while
     undo logging pays one per update plus commit barriers *)
  let count kind =
    let pm, heap, b = mk_backend kind in
    let base = Heap.alloc heap (16 * 8) in
    b.Ctx.run_tx (fun ctx ->
        for i = 0 to 15 do
          ctx.Ctx.write (base + (i * 8)) i
        done);
    let f0 = (Pmem.stats pm).Stats.fences in
    b.Ctx.run_tx (fun ctx ->
        for i = 0 to 15 do
          ctx.Ctx.write (base + (i * 8)) (i * 2)
        done);
    (Pmem.stats pm).Stats.fences - f0
  in
  Alcotest.(check int) "SpecPMT: one fence per tx" 1 (count Registry.Spec);
  Alcotest.(check bool) "PMDK: a fence per update" true
    (count Registry.Pmdk >= 16)

let test_spec_no_data_flush () =
  let pm, heap, b = mk_backend Registry.Spec in
  let base = Heap.alloc heap 64 in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 1);
  let w0 = (Pmem.stats pm).Stats.ns in
  let c0 = (Pmem.stats pm).Stats.clwbs in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 2);
  let dp_pm, dp_heap, dp = mk_backend Registry.Spec_dp in
  let dp_base = Heap.alloc dp_heap 64 in
  dp.Ctx.run_tx (fun ctx -> ctx.Ctx.write dp_base 1);
  ignore (w0, c0, dp_pm);
  (* SpecSPMT-DP flushes log + data; SpecSPMT flushes only log lines *)
  Alcotest.(check bool) "DP issues more flushes" true
    ((Pmem.stats dp_pm).Stats.clwbs > c0)

let test_spec_reclamation_bounds_log () =
  let pm = Pmem.create Config.small in
  let heap = Heap.create pm in
  let backend, t =
    Spec_soft.create heap
      { Spec_soft.default_params with reclaim_bytes = 16 * 1024 }
  in
  let base = Heap.alloc heap (8 * 8) in
  for round = 0 to 400 do
    backend.Ctx.run_tx (fun ctx ->
        for i = 0 to 7 do
          ctx.Ctx.write (base + (i * 8)) (round + i)
        done)
  done;
  Alcotest.(check bool) "reclamation ran" true (Spec_soft.reclaim_count t > 0);
  Alcotest.(check bool) "log stays bounded" true
    (backend.Ctx.log_footprint () <= 32 * 1024);
  (* and the log still recovers the freshest state *)
  Pmem.crash pm;
  backend.Ctx.recover ();
  let cells = Testlib.read_cells pm base 8 in
  for i = 0 to 7 do
    Alcotest.(check int) "freshest value" (400 + i) cells.(i)
  done

(* The footprint trigger: compact once the log exceeds [reclaim_bytes]
   and at least doubles its last compacted size, checked after every
   commit.  Here the live set compacts to more than [reclaim_bytes], so
   only the doubling rule keeps the runtime from compacting on every
   commit. *)
let test_spec_reclaim_trigger () =
  let pm = Pmem.create ~seed:29 Config.small in
  let heap = Heap.create pm in
  let block_bytes = 256 and reclaim_bytes = 1024 in
  let backend, t =
    Spec_soft.create heap
      { Spec_soft.default_params with block_bytes; reclaim_bytes }
  in
  let base = Heap.alloc heap (64 * 8) in
  let expect = Array.make 64 0 in
  let last = ref block_bytes and prev = ref (backend.Ctx.log_footprint ()) in
  let due foot = foot > reclaim_bytes && foot > 2 * !last in
  for round = 0 to 300 do
    let before = Spec_soft.reclaim_count t in
    backend.Ctx.run_tx (fun ctx ->
        for i = 0 to 3 do
          let c = ((round * 4) + i) mod 64 in
          ctx.Ctx.write (base + (c * 8)) (round + i);
          expect.(c) <- round + i
        done);
    let foot = backend.Ctx.log_footprint () in
    (match Spec_soft.reclaim_count t - before with
    | 0 ->
        if due foot then
          Alcotest.failf "round %d: %d B due (last compacted %d B)" round
            foot !last
    | 1 ->
        (* a four-entry record grows the log by at most one block *)
        if not (due (!prev + block_bytes)) then
          Alcotest.failf "round %d: compacted at <= %d B (last %d B)" round
            (!prev + block_bytes) !last;
        last := foot
    | n -> Alcotest.failf "round %d: %d compactions in one commit" round n);
    prev := foot
  done;
  Alcotest.(check bool) "compacted log stays above the threshold" true
    (!last > reclaim_bytes);
  Alcotest.(check bool) "compacted more than once" true
    (Spec_soft.reclaim_count t >= 2);
  Alcotest.(check bool) "not on every commit" true
    (Spec_soft.reclaim_count t < 30);
  Pmem.crash pm;
  backend.Ctx.recover ();
  Alcotest.(check (array int)) "freshest values" expect
    (Testlib.read_cells pm base 64)

let test_spec_snapshot_external_data () =
  let pm = Pmem.create { Config.small with crash_word_persist_prob = 1.0 } in
  let heap = Heap.create pm in
  let backend, t = Spec_soft.create heap Spec_soft.default_params in
  let base = Heap.alloc heap 64 in
  (* external data: written outside any transaction *)
  Pmem.store_int pm base 1234;
  Pmem.clwb pm base;
  Pmem.sfence pm;
  Spec_soft.snapshot_region t base 8;
  (* an uncommitted update can now be revoked *)
  (try
     backend.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write base 9999;
         Pmem.set_fuse pm (Some 1);
         ctx.Ctx.write base 8888)
   with Pmem.Crash -> ());
  Pmem.crash pm;
  backend.Ctx.recover ();
  Alcotest.(check int) "external datum revoked to snapshot" 1234
    (Pmem.peek_volatile_int pm base)

let test_kamino_recovery_unsupported () =
  let _, _, b = mk_backend Registry.Kamino in
  Alcotest.(check bool) "flagged" false b.Ctx.supports_recovery;
  Alcotest.(check bool) "raises" true
    (try
       b.Ctx.recover ();
       false
     with Invalid_argument _ -> true)

(* multi-threaded speculative logging: per-thread logs, global timestamp
   order at recovery (Sections 4.1 and 5.2.2) *)
let test_mt_interleaved_recovery () =
  let pm =
    Pmem.create ~seed:9 { Config.small with crash_word_persist_prob = 0.6 }
  in
  let heap = Heap.create pm in
  let mt = Spec_mt.create heap ~threads:3 in
  let base = Heap.alloc heap (4 * 8) in
  (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx ->
      for i = 0 to 3 do
        ctx.Ctx.write (base + (i * 8)) 0
      done);
  (* interleave transactions across threads, all touching cell 0 — the
     last committed write must win after recovery, which only timestamp
     ordering across the three logs can get right *)
  let order = [ 0; 1; 2; 1; 0; 2; 2; 0; 1; 0 ] in
  List.iteri
    (fun round th ->
      (Spec_mt.thread mt th).Ctx.run_tx (fun ctx ->
          ctx.Ctx.write base ((round * 10) + th);
          ctx.Ctx.write (base + 8 + (th * 8)) round))
    order;
  Pmem.crash pm;
  Spec_mt.recover mt;
  (* last element of [order] is round 9 on thread 0 *)
  Alcotest.(check int) "last global write wins" 90
    (Pmem.peek_volatile_int pm base);
  Alcotest.(check int) "thread 0 cell" 9 (Pmem.peek_volatile_int pm (base + 8));
  Alcotest.(check int) "thread 1 cell" 8 (Pmem.peek_volatile_int pm (base + 16));
  Alcotest.(check int) "thread 2 cell" 6 (Pmem.peek_volatile_int pm (base + 24))

let test_mt_crash_revokes_only_open_tx () =
  let pm =
    Pmem.create ~seed:13 { Config.small with crash_word_persist_prob = 1.0 }
  in
  let heap = Heap.create pm in
  let mt = Spec_mt.create heap ~threads:2 in
  let base = Heap.alloc heap 32 in
  (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx ->
      ctx.Ctx.write base 1;
      ctx.Ctx.write (base + 8) 2);
  (Spec_mt.thread mt 1).Ctx.run_tx (fun ctx -> ctx.Ctx.write base 5);
  (* thread 0 crashes mid-transaction *)
  (try
     (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx ->
         ctx.Ctx.write base 999;
         Pmem.set_fuse pm (Some 1);
         ctx.Ctx.write (base + 8) 888)
   with Pmem.Crash -> ());
  Pmem.crash pm;
  Spec_mt.recover mt;
  Alcotest.(check int) "thread 1's commit is the freshest" 5
    (Pmem.peek_volatile_int pm base);
  Alcotest.(check int) "interrupted write revoked" 2
    (Pmem.peek_volatile_int pm (base + 8));
  (* threads keep working after recovery *)
  (Spec_mt.thread mt 1).Ctx.run_tx (fun ctx -> ctx.Ctx.write base 7);
  Alcotest.(check int) "post-recovery commit" 7 (Pmem.peek_volatile_int pm base)

(* every thread's [recover] is the pool's: recovering through one thread
   must merge every thread's log and reattach every thread *)
let test_mt_member_recover_is_pool_recover () =
  let pm = Pmem.create ~seed:17 Config.small in
  let heap = Heap.create pm in
  let mt = Spec_mt.create heap ~threads:2 in
  let x = Heap.alloc heap 64 in
  (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx -> ctx.Ctx.write x 1);
  (Spec_mt.thread mt 1).Ctx.run_tx (fun ctx -> ctx.Ctx.write x 2);
  Pmem.crash pm;
  (Spec_mt.thread mt 0).Ctx.recover ();
  Alcotest.(check int) "thread 1's later commit survives" 2
    (Pmem.peek_volatile_int pm x);
  (Spec_mt.thread mt 1).Ctx.run_tx (fun ctx -> ctx.Ctx.write x 3);
  Pmem.crash pm;
  (Spec_mt.thread mt 1).Ctx.recover ();
  Alcotest.(check int) "thread 1 appends to its reattached log" 3
    (Pmem.peek_volatile_int pm x)

(* Section 4.3.1: switch from speculative logging to undo logging *)
let test_mechanism_switch () =
  let pm =
    Pmem.create ~seed:51 { Config.small with crash_word_persist_prob = 0.0 }
  in
  let heap = Heap.create pm in
  let spec_backend, spec = Spec_soft.create heap Spec_soft.default_params in
  let base = Heap.alloc heap 64 in
  spec_backend.Ctx.run_tx (fun ctx ->
      ctx.Ctx.write base 11;
      ctx.Ctx.write (base + 8) 22);
  let persisted = Spec_soft.switch_out spec in
  Alcotest.(check bool) "cells persisted" true (persisted >= 2);
  (* with zero leak probability, only the switch-out flush can explain
     the data being durable *)
  Alcotest.(check int) "data durable without recovery" 11
    (Pmem.peek_media_int pm base);
  (* undo logging takes over and recovers on its own *)
  let undo = Registry.create heap Registry.Pmdk in
  (try
     undo.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write base 99;
         Pmem.set_fuse pm (Some 1);
         ctx.Ctx.write (base + 8) 98)
   with Pmem.Crash -> ());
  Pmem.crash pm;
  undo.Ctx.recover ();
  Alcotest.(check int) "undo revoked its tx" 11 (Pmem.peek_volatile_int pm base);
  Alcotest.(check int) "spec-era value intact" 22
    (Pmem.peek_volatile_int pm (base + 8))

(* random multi-threaded interleavings with a crash: the recovered state
   must equal the reference applied in global commit order, modulo the
   usual at-most-one in-flight transaction *)
let prop_mt_atomic_durability =
  QCheck.Test.make ~name:"atomic durability: Spec_mt (3 threads)" ~count:40
    QCheck.(triple small_nat small_nat (int_bound 10000))
    (fun (seed, fuse_seed, salt) ->
      let cells = 10 and txs_per_thread = 5 in
      let rand = Random.State.make [| seed; salt; 71 |] in
      let pm =
        Pmem.create ~seed:(salt + 3)
          {
            Config.small with
            crash_word_persist_prob = float_of_int (seed mod 11) /. 10.0;
          }
      in
      let heap = Heap.create pm in
      let mt = Spec_mt.create heap ~threads:3 in
      let base = Heap.alloc heap (cells * 8) in
      (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx ->
          for i = 0 to cells - 1 do
            ctx.Ctx.write (base + (i * 8)) 0
          done);
      (* random global schedule of per-thread transactions *)
      let schedule =
        List.concat_map
          (fun th -> List.init txs_per_thread (fun _ -> th))
          [ 0; 1; 2 ]
        |> List.sort (fun _ _ -> if Random.State.bool rand then 1 else -1)
      in
      let txs =
        List.map
          (fun th ->
            ( th,
              List.init
                (1 + Random.State.int rand 4)
                (fun _ ->
                  (Random.State.int rand cells, Random.State.int rand 100000))
            ))
          schedule
      in
      let reference = Array.make cells 0 in
      let committed = ref [] in
      Pmem.set_fuse pm (Some (1 + (((fuse_seed * 53) + salt) mod 2500)));
      let crashed =
        try
          List.iter
            (fun (th, writes) ->
              (Spec_mt.thread mt th).Ctx.run_tx (fun ctx ->
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
        Spec_mt.recover mt
      end;
      List.iter
        (fun writes -> List.iter (fun (c, v) -> reference.(c) <- v) writes)
        (List.rev !committed);
      let recovered = Testlib.read_cells pm base cells in
      (* allow the one possibly-committed-but-uncounted transaction *)
      let matches r =
        Array.for_all2 (fun a b -> a = b) recovered r
      in
      let next_ref =
        match List.nth_opt txs (List.length !committed) with
        | Some (_, writes) ->
            let r = Array.copy reference in
            List.iter (fun (c, v) -> r.(c) <- v) writes;
            r
        | None -> reference
      in
      matches reference || matches next_ref)

(* The paper's Section 5.1 coherence scenario, software rendition: two
   threads write the same datum (w1 then w2); neither write is ever
   flushed.  If w2's transaction commits, recovery must produce w2; if it
   is interrupted, recovery must revoke it back to w1 using thread 1's
   record — in both cases without persisting w1's effect. *)
let test_coherence_scenario_51 () =
  let run ~interrupt =
    let pm =
      Pmem.create ~seed:61 { Config.small with crash_word_persist_prob = 1.0 }
    in
    let heap = Heap.create pm in
    let mt = Spec_mt.create heap ~threads:2 in
    let x = Heap.alloc heap 8 in
    (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx -> ctx.Ctx.write x 0);
    (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx -> ctx.Ctx.write x 1) (* w1 *);
    (try
       (Spec_mt.thread mt 1).Ctx.run_tx (fun ctx ->
           ctx.Ctx.write x 2 (* w2 *);
           if interrupt then begin
             Pmem.set_fuse pm (Some 1);
             ignore (ctx.Ctx.read x)
           end)
     with Pmem.Crash -> ());
    Pmem.crash pm;
    Spec_mt.recover mt;
    Pmem.peek_volatile_int pm x
  in
  Alcotest.(check int) "w2 committed -> recover w2" 2 (run ~interrupt:false);
  Alcotest.(check int) "w2 interrupted -> revoke to w1" 1 (run ~interrupt:true)

(* crash at every point inside switch_out (Section 4.3.1): afterwards,
   either the speculative log still recovers the state, or the flushes
   already made it durable — never a torn middle *)
let test_switch_out_crash_atomic () =
  let fuse = ref 1 in
  let continue_ = ref true in
  while !continue_ do
    let pm =
      Pmem.create ~seed:71 { Config.small with crash_word_persist_prob = 0.5 }
    in
    let heap = Heap.create pm in
    let backend, spec = Spec_soft.create heap Spec_soft.default_params in
    let base = Heap.alloc heap (8 * 8) in
    backend.Ctx.run_tx (fun ctx ->
        for i = 0 to 7 do
          ctx.Ctx.write (base + (i * 8)) (i + 40)
        done);
    Pmem.set_fuse pm (Some !fuse);
    let crashed =
      try
        ignore (Spec_soft.switch_out spec);
        false
      with Pmem.Crash -> true
    in
    Pmem.set_fuse pm None;
    if crashed then begin
      Pmem.crash pm;
      backend.Ctx.recover ()
    end;
    for i = 0 to 7 do
      Alcotest.(check int)
        (Printf.sprintf "fuse %d cell %d" !fuse i)
        (i + 40)
        (Pmem.peek_volatile_int pm (base + (i * 8)))
    done;
    continue_ := crashed;
    incr fuse
  done;
  Alcotest.(check bool) "switch_out eventually completes" true (!fuse > 2)

(* coalescing recovery's headline property: recovery cost tracks live
   data, not log length.  N stale overwrites of one cell recover with
   exactly one data write under [Coalesce]; the [Replay] oracle pays one
   write per record *)
let test_recover_coalesces_stale_overwrites () =
  let overwrites = 50 in
  let run mode =
    let pm = Pmem.create ~seed:13 Config.small in
    let heap = Heap.create pm in
    let backend, _ =
      Spec_soft.create heap { Spec_soft.default_params with recovery = mode }
    in
    let base = Heap.alloc heap 8 in
    for r = 1 to overwrites do
      backend.Ctx.run_tx (fun ctx -> ctx.Ctx.write base r)
    done;
    Pmem.crash pm;
    Specpmt_obs.Metrics.reset_all ();
    backend.Ctx.recover ();
    Alcotest.(check int) "freshest value recovered" overwrites
      (Pmem.peek_volatile_int pm base);
    Specpmt_obs.Metrics.counter_value
      (Specpmt_obs.Metrics.counter "recover.data_writes")
  in
  Alcotest.(check int) "coalesced: one write for the live cell" 1
    (run Spec_soft.Coalesce);
  Alcotest.(check int) "replay oracle: one write per record" overwrites
    (run Spec_soft.Replay)

(* differential oracle: on any randomized 3-thread history with a crash,
   coalescing recovery must reproduce exactly the state the paper's
   sort-and-replay algorithm yields.  The pre-crash execution is
   deterministic in the seeds and independent of the recovery mode, so
   the two runs see identical logs and media states. *)
let prop_mt_recovery_differential =
  QCheck.Test.make
    ~name:"coalesced recovery == legacy replay (3 threads)" ~count:40
    QCheck.(triple small_nat small_nat (int_bound 10000))
    (fun (seed, fuse_seed, salt) ->
      let cells = 10 and txs_per_thread = 5 in
      let run mode =
        let rand = Random.State.make [| seed; salt; 72 |] in
        let pm =
          Pmem.create ~seed:(salt + 5)
            {
              Config.small with
              crash_word_persist_prob = float_of_int (seed mod 11) /. 10.0;
            }
        in
        let heap = Heap.create pm in
        let mt =
          Spec_mt.create
            ~params:{ Spec_soft.default_params with recovery = mode }
            heap ~threads:3
        in
        let base = Heap.alloc heap (cells * 8) in
        (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx ->
            for i = 0 to cells - 1 do
              ctx.Ctx.write (base + (i * 8)) 0
            done);
        let schedule =
          List.concat_map
            (fun th -> List.init txs_per_thread (fun _ -> th))
            [ 0; 1; 2 ]
          |> List.sort (fun _ _ -> if Random.State.bool rand then 1 else -1)
        in
        let txs =
          List.map
            (fun th ->
              ( th,
                List.init
                  (1 + Random.State.int rand 4)
                  (fun _ ->
                    (Random.State.int rand cells, Random.State.int rand 100000))
              ))
            schedule
        in
        Pmem.set_fuse pm (Some (1 + (((fuse_seed * 53) + salt) mod 2500)));
        (try
           List.iter
             (fun (th, writes) ->
               (Spec_mt.thread mt th).Ctx.run_tx (fun ctx ->
                   List.iter
                     (fun (c, v) -> ctx.Ctx.write (base + (c * 8)) v)
                     writes))
             txs
         with Pmem.Crash -> ());
        Pmem.set_fuse pm None;
        Pmem.crash pm;
        Spec_mt.recover mt;
        Testlib.read_cells pm base cells
      in
      run Spec_soft.Coalesce = run Spec_soft.Replay)

(* Reattach and reclamation do the arena's work and nothing more: no
   second walk of the log behind [Log_arena.attach] or [Log_arena.compact].
   Each pair runs on identical images (same seed, same workload), and
   [Pmem.events] counts unmetered device operations too. *)
let spec_image () =
  let pm = Pmem.create ~seed:23 Config.small in
  let heap = Heap.create pm in
  let backend, t =
    Spec_soft.create heap
      { Spec_soft.default_params with block_bytes = 256; reclaim_bytes = max_int }
  in
  let base = Heap.alloc heap (16 * 8) in
  for round = 0 to 60 do
    backend.Ctx.run_tx (fun ctx ->
        for i = 0 to 3 do
          ctx.Ctx.write (base + ((((round * 3) + i) mod 16) * 8)) (round + i)
        done)
  done;
  (pm, heap, backend, t)

(* the tail a recovery scan of [spec_image]'s log ends at *)
let spec_tail pm =
  snd
    (Log_arena.recover_scan pm ~head_slot:Slots.spec_head ~block_bytes:256
       ~f:(fun ~ts:_ _ _ _ -> ()))

let events_of pm f =
  let before = Pmem.events pm in
  ignore (f ());
  Pmem.events pm - before

let test_reattach_is_one_attach () =
  let pm1, _, _, t = spec_image () in
  let pm2, heap2, _, _ = spec_image () in
  Pmem.crash pm1;
  Pmem.crash pm2;
  let tail1 = spec_tail pm1 and tail2 = spec_tail pm2 in
  let arena = ref None in
  let attach =
    events_of pm2 (fun () -> arena := Some (Log_arena.attach heap2 ~tail:tail2))
  in
  Alcotest.(check bool) "the log spans several blocks" true
    (Log_arena.block_count (Option.get !arena) > 1);
  Alcotest.(check int) "reattach = one Log_arena.attach" attach
    (events_of pm1 (fun () -> Spec_soft.reattach t ~tail:tail1))

let test_reclaim_is_one_compact () =
  let pm1, _, _, t = spec_image () in
  let pm2, heap2, _, _ = spec_image () in
  let a = Log_arena.attach heap2 ~tail:(spec_tail pm2) in
  let compact = events_of pm2 (fun () -> Log_arena.compact a) in
  Alcotest.(check int) "reclaim_now = one Log_arena.compact" compact
    (events_of pm1 (fun () -> Spec_soft.reclaim_now t))

(* Recovery budget: recovery walks each log once (its scan), and then
   only the chain pointers; it drains each restored line once, in
   ascending line order. *)
let stats_of pm f =
  let before = Stats.copy (Pmem.stats pm) in
  f ();
  Stats.diff before (Pmem.stats pm)

let line_count addrs =
  List.length (List.sort_uniq compare (List.map Addr.line_index addrs))

let test_recovery_walks_each_log_once () =
  let pm1, _, backend, _ = spec_image () in
  let pm2, heap2, _, _ = spec_image () in
  Pmem.crash pm1;
  Pmem.crash pm2;
  let live = ref [] in
  ignore
    (Log_arena.recover_scan pm2 ~head_slot:Slots.spec_head ~block_bytes:256
       ~f:(fun ~ts:_ addrs _ n ->
         for i = 0 to n - 1 do
           live := addrs.(i) :: !live
         done));
  let tails = ref [||] in
  let coalesce =
    stats_of pm2 (fun () ->
        let _, t, _, _, _ =
          Log_arena.coalesce pm2 ~block_bytes:256
            ~log_bytes:(Heap.log_zone_bytes heap2) [| Slots.spec_head |]
        in
        tails := t)
  in
  let blocks = Log_arena.block_count (Log_arena.attach heap2 ~tail:!tails.(0)) in
  let recovery = stats_of pm1 backend.Ctx.recover in
  Alcotest.(check int) "loads = one coalesce walk + one per chained block"
    (coalesce.Stats.loads + blocks) recovery.Stats.loads;
  (* the one clwb beyond the restored lines is attach's sentinel *)
  let lines = line_count !live in
  Alcotest.(check bool) "the live cells span several lines" true (lines > 1);
  Alcotest.(check int) "one clwb per restored line" (lines + 1)
    recovery.Stats.clwbs

let test_recovery_drains_lines_in_order () =
  let pm = Pmem.create ~seed:29 Config.small in
  let heap = Heap.create pm in
  let backend, _ =
    Spec_soft.create heap
      { Spec_soft.default_params with reclaim_bytes = max_int }
  in
  let cells = 512 in
  let base = Heap.alloc heap (cells * 8) in
  (* 389 is coprime to 512: every cell is written once, in an order that
     neither the log nor a hash table lines up *)
  for r = 0 to 63 do
    backend.Ctx.run_tx (fun ctx ->
        for i = 0 to 7 do
          let c = ((r * 8) + i) * 389 mod cells in
          ctx.Ctx.write (base + (c * 8)) ((r * 8) + i + 1)
        done)
  done;
  Pmem.crash pm;
  let d = stats_of pm backend.Ctx.recover in
  let lines = line_count (List.init cells (fun c -> base + (c * 8))) in
  Alcotest.(check int) "each restored line written once (+ attach's sentinel)"
    (lines + 1) d.Stats.pm_write_lines;
  (* neither the first table line nor the sentinel's log line continues
     a stream *)
  Alcotest.(check int) "every restored line after the first is sequential"
    (lines - 1) d.Stats.pm_write_lines_seq;
  let expected = Array.make cells 0 in
  for k = 0 to cells - 1 do
    expected.(k * 389 mod cells) <- k + 1
  done;
  Alcotest.(check (array int)) "the table is restored" expected
    (Testlib.read_cells pm base cells)

(* A crash at every event of recovery, then a second recovery: the cells
   must hold the committed image whatever part of the first recovery
   persisted.  256-byte blocks and no reclamation, so the 96-cell
   adoption and the 60 six-write transactions chain many blocks. *)
let recovery_crash_image ~threads =
  let pm =
    Pmem.create ~seed:31 { Config.small with crash_word_persist_prob = 0.5 }
  in
  let heap = Heap.create pm in
  let params =
    { Spec_soft.default_params with block_bytes = 256; reclaim_bytes = max_int }
  in
  let backends, recover =
    if threads = 1 then
      let b, _ = Spec_soft.create heap params in
      ([| b |], b.Ctx.recover)
    else
      let mt = Spec_mt.create ~params heap ~threads in
      (Array.init threads (Spec_mt.thread mt), fun () -> Spec_mt.recover mt)
  in
  let cells = 96 in
  let base = Heap.alloc heap (cells * 8) in
  backends.(0).Ctx.run_tx (fun ctx ->
      for i = 0 to cells - 1 do
        ctx.Ctx.write (base + (i * 8)) 0
      done);
  let model = Array.make cells 0 in
  let rand = Random.State.make [| 31; threads |] in
  for tx = 0 to 59 do
    let writes =
      List.init 6 (fun _ ->
          (Random.State.int rand cells, 1 + Random.State.int rand 1_000_000))
    in
    backends.(tx mod threads).Ctx.run_tx (fun ctx ->
        List.iter (fun (c, v) -> ctx.Ctx.write (base + (c * 8)) v) writes);
    List.iter (fun (c, v) -> model.(c) <- v) writes
  done;
  Pmem.crash pm;
  (pm, base, model, recover)

let test_crash_at_every_recovery_event ~threads () =
  Testlib.sweep_recovery_crashes (fun () ->
      let pm, base, model, recover = recovery_crash_image ~threads in
      ( pm,
        recover,
        fun label ->
          if Testlib.read_cells pm base (Array.length model) <> model then
            Alcotest.failf "%s: cells differ from the committed image" label ))

let durability_cases =
  List.concat_map
    (fun kind ->
      let n = Registry.name kind in
      let create heap = Registry.create heap kind in
      [
        Alcotest.test_case (n ^ ": committed durable") `Quick
          (test_committed_durable kind);
        Alcotest.test_case (n ^ ": uncommitted revoked") `Quick
          (test_uncommitted_revoked kind);
        Alcotest.test_case (n ^ ": abort rolls back") `Quick
          (Testlib.test_abort_rolls_back create);
        Alcotest.test_case (n ^ ": read own writes") `Quick
          (Testlib.test_read_own_writes create);
        Alcotest.test_case (n ^ ": double crash") `Quick
          (Testlib.test_double_crash create);
        Alcotest.test_case (n ^ ": crash drops open writes") `Quick
          (Testlib.test_crash_drops_open_writes create);
        Alcotest.test_case (n ^ ": empty tx between commits") `Quick
          (test_empty_tx_between_commits kind);
        Alcotest.test_case (n ^ ": recovery idempotent") `Quick
          (Testlib.test_recovery_idempotent create);
        Alcotest.test_case (n ^ ": crash during recovery") `Quick
          (Testlib.test_crash_during_recovery create);
      ])
    recoverable

(* regressions: directed reproducers for bugs the crash explorer found *)

(* compaction must not restamp survivors with the newest timestamp: with
   per-thread logs, recovery replays all records in global timestamp
   order (Section 5.2.2), so a compacted record carrying max_ts would
   replay thread 0's stale value over thread 1's fresher committed one *)
let test_mt_compaction_preserves_replay_order () =
  let pm = Pmem.create ~seed:91 Config.small in
  let heap = Heap.create pm in
  let mt =
    Spec_mt.create
      ~params:{ Spec_soft.default_params with block_bytes = 256 }
      heap ~threads:2
  in
  let base = Heap.alloc heap 64 in
  let t0 = Spec_mt.thread mt 0 and t1 = Spec_mt.thread mt 1 in
  t0.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 1) (* ts 1 *);
  t1.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 2) (* ts 2 *);
  t0.Ctx.run_tx (fun ctx -> ctx.Ctx.write (base + 8) 3) (* ts 3 *);
  ignore (Spec_soft.reclaim_now (Spec_mt.runtime mt 0));
  (* nothing drained to the media: recovery rebuilds every cell from the
     two logs, and only the cross-log replay order decides who wins *)
  Pmem.crash_with pm ~persist:(fun _ -> false);
  Spec_mt.recover mt;
  Alcotest.(check int) "thread 1's fresher value wins" 2
    (Pmem.peek_volatile_int pm base);
  Alcotest.(check int) "thread 0's later cell intact" 3
    (Pmem.peek_volatile_int pm (base + 8))

(* switch-out must durably invalidate the whole speculative log: records
   left valid in the tail block would be replayed by a later recovery and
   clobber data committed by the replacement mechanism (Section 4.3.1) *)
let test_switch_out_invalidates_log () =
  let pm =
    Pmem.create ~seed:92 { Config.small with crash_word_persist_prob = 0.0 }
  in
  let heap = Heap.create pm in
  let backend, spec = Spec_soft.create heap Spec_soft.default_params in
  let base = Heap.alloc heap 64 in
  backend.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 11);
  ignore (Spec_soft.switch_out spec);
  let undo = Registry.create heap Registry.Pmdk in
  undo.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 99);
  Pmem.crash_with pm ~persist:(fun _ -> true);
  backend.Ctx.recover ();
  undo.Ctx.recover ();
  Alcotest.(check int) "stale speculative record not replayed" 99
    (Pmem.peek_volatile_int pm base)

(* switch-out's flush set is every cell the live log covers — found by
   scanning the log, so cells whose only record a compaction rewrote
   count too — each flushed once; a cell stored outside any transaction
   is not the log's to persist *)
let test_switch_out_flush_set () =
  let pm =
    Pmem.create ~seed:93 { Config.small with crash_word_persist_prob = 0.0 }
  in
  let heap = Heap.create pm in
  let backend, spec =
    Spec_soft.create heap { Spec_soft.default_params with block_bytes = 256 }
  in
  let base = Heap.alloc heap (33 * 8) in
  (* a line of its own: no logged cell below base + 192 shares it *)
  let unlogged = base + (32 * 8) in
  for round = 0 to 40 do
    backend.Ctx.run_tx (fun ctx ->
        for i = 0 to 2 do
          ctx.Ctx.write (base + ((((round * 3) + i) mod 24) * 8)) (round + 1)
        done)
  done;
  ignore (Spec_soft.reclaim_now spec);
  backend.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 99);
  Pmem.store_int pm unlogged 5;
  Alcotest.(check int) "every logged cell, once" 24 (Spec_soft.switch_out spec);
  for c = 0 to 23 do
    let a = base + (c * 8) in
    Alcotest.(check int) (Printf.sprintf "cell %d durable" c)
      (Pmem.peek_volatile_int pm a) (Pmem.peek_media_int pm a)
  done;
  Alcotest.(check int) "unlogged cell not flushed" 0
    (Pmem.peek_media_int pm unlogged)

(* an aborted transaction's allocations must be compensated, or every
   abort leaks heap blocks *)
(* the Spec_mt thread cap scales with the root-slot table: no more
   hard-coded 1..3 (one reserved head slot per thread) *)
let test_mt_thread_cap_lifted () =
  Alcotest.(check int) "cap = remaining root slots"
    Slots.spec_mt_max_threads Spec_mt.max_threads;
  Alcotest.(check bool) "cap is well past the old 3" true
    (Spec_mt.max_threads >= 8);
  ignore (Slots.spec_mt_head (Spec_mt.max_threads - 1));
  Alcotest.check_raises "head slot past the cap rejected"
    (Invalid_argument "Slots.spec_mt_head") (fun () ->
      ignore (Slots.spec_mt_head Spec_mt.max_threads));
  let mk threads =
    let pm = Pmem.create ~seed:17 Config.small in
    ignore (Spec_mt.create (Heap.create pm) ~threads)
  in
  (* the full-width pool fits a small image with small log blocks *)
  let pm = Pmem.create ~seed:17 Config.small in
  ignore
    (Spec_mt.create
       ~params:{ Spec_soft.default_params with block_bytes = 256 }
       (Heap.create pm) ~threads:Spec_mt.max_threads);
  List.iter
    (fun threads ->
      Alcotest.(check bool)
        (Printf.sprintf "threads=%d rejected" threads)
        true
        (try
           mk threads;
           false
         with Invalid_argument _ -> true))
    [ 0; -1; Spec_mt.max_threads + 1 ]

(* directed 8-thread pool: interleaved commits + one open transaction
   per the crash, then a full recovery audit (satellite of the service
   tentpole, which runs one shard per pool thread) *)
let test_mt_eight_threads_crash_recover () =
  let pm =
    Pmem.create ~seed:23 { Config.small with crash_word_persist_prob = 0.7 }
  in
  let heap = Heap.create pm in
  let mt = Spec_mt.create heap ~threads:8 in
  let base = Heap.alloc heap (9 * 8) in
  (Spec_mt.thread mt 0).Ctx.run_tx (fun ctx ->
      for i = 0 to 8 do
        ctx.Ctx.write (base + (i * 8)) 0
      done);
  (* 3 rounds x 8 threads, every thread contending on cell 8 *)
  for round = 0 to 2 do
    for th = 0 to 7 do
      (Spec_mt.thread mt th).Ctx.run_tx (fun ctx ->
          ctx.Ctx.write (base + (th * 8)) ((round * 100) + th);
          ctx.Ctx.write (base + 64) ((round * 10) + th))
    done
  done;
  (* thread 5 dies mid-transaction *)
  (try
     (Spec_mt.thread mt 5).Ctx.run_tx (fun ctx ->
         ctx.Ctx.write (base + 40) 999_999;
         Pmem.set_fuse pm (Some 1);
         ctx.Ctx.write (base + 64) 888_888)
   with Pmem.Crash -> ());
  Pmem.crash pm;
  Spec_mt.recover mt;
  for th = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "thread %d cell" th)
      (200 + th)
      (Pmem.peek_volatile_int pm (base + (th * 8)))
  done;
  Alcotest.(check int) "contended cell: last committed writer wins" 27
    (Pmem.peek_volatile_int pm (base + 64));
  (* all eight threads keep working after recovery *)
  for th = 0 to 7 do
    (Spec_mt.thread mt th).Ctx.run_tx (fun ctx ->
        ctx.Ctx.write (base + (th * 8)) (500 + th))
  done;
  for th = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "post-recovery thread %d" th)
      (500 + th)
      (Pmem.peek_volatile_int pm (base + (th * 8)))
  done

(* group-commit batch API: misuse guards and the single-fence seal *)
let test_batch_api_guards () =
  let pm = Pmem.create ~seed:31 Config.small in
  let heap = Heap.create pm in
  let backend, t = Spec_soft.create heap Spec_soft.default_params in
  Alcotest.(check bool) "not batching initially" false (Spec_soft.in_batch t);
  Alcotest.check_raises "end without begin"
    (Invalid_argument "Spec_soft.batch_end: no open batch") (fun () ->
      ignore (Spec_soft.batch_end t));
  Spec_soft.batch_begin t;
  Alcotest.check_raises "nested begin"
    (Invalid_argument "Spec_soft.batch_begin: batch already open") (fun () ->
      Spec_soft.batch_begin t);
  let base = Heap.alloc heap 8 in
  backend.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 0);
  Alcotest.(check int) "seals the adoption tx" 1 (Spec_soft.batch_end t);
  (* data_persist commits eagerly per transaction: batching refused *)
  let _, dp = Spec_soft.create heap Spec_soft.dp_params in
  Alcotest.check_raises "data_persist cannot batch"
    (Invalid_argument
       "Spec_soft.batch_begin: data-persist mode fences per transaction")
    (fun () -> Spec_soft.batch_begin dp)

let test_batch_single_fence () =
  let pm = Pmem.create ~seed:37 Config.small in
  let heap = Heap.create pm in
  let backend, t = Spec_soft.create heap Spec_soft.default_params in
  let base = Heap.alloc heap (8 * 8) in
  backend.Ctx.run_tx (fun ctx ->
      for i = 0 to 7 do
        ctx.Ctx.write (base + (i * 8)) 0
      done);
  let fences_for n =
    let before = (Pmem.stats pm).Stats.fences in
    Spec_soft.batch_begin t;
    for i = 1 to n do
      backend.Ctx.run_tx (fun ctx -> ctx.Ctx.write (base + (i mod 8 * 8)) i)
    done;
    Alcotest.(check int) "all sealed" n (Spec_soft.batch_end t);
    (Pmem.stats pm).Stats.fences - before
  in
  Alcotest.(check int) "4 txns, one fence" 1 (fences_for 4);
  Alcotest.(check int) "8 txns, one fence" 1 (fences_for 8);
  (* and the batch is durable: drain nothing further, recover, audit *)
  Pmem.crash_with pm ~persist:(fun _ -> false);
  backend.Ctx.recover ();
  Alcotest.(check int) "last batched write survives" 8
    (Pmem.peek_volatile_int pm base)

let test_abort_releases_allocations () =
  let pm = Pmem.create ~seed:93 Config.small in
  let heap = Heap.create pm in
  let backend, _ = Spec_soft.create heap Spec_soft.default_params in
  let base = Heap.alloc heap 8 in
  let abort_once () =
    try
      backend.Ctx.run_tx (fun ctx ->
          let a = ctx.Ctx.alloc 512 in
          ctx.Ctx.write a 1;
          ctx.Ctx.write base 7;
          raise Ctx.Abort)
    with Ctx.Abort -> ()
  in
  (* the first cycle pays the block's 8-byte header (live_bytes counts
     freed payloads, not headers); from then on the footprint must be
     flat — a leak grows it by a full block per abort *)
  abort_once ();
  let steady = Heap.live_bytes heap in
  for _ = 1 to 5 do
    abort_once ()
  done;
  Alcotest.(check int) "no leak across aborted transactions" steady
    (Heap.live_bytes heap)

(* read-own-writes fast path: Spht's [tx_read] must not probe the write
   buffer while the transaction's write set is empty — the common case
   for read-only transactions.  The [tx.buffer_probes] counter meters
   the slow path, so a read-only transaction must leave it untouched
   while a read-after-write transaction still takes it (correct
   redirection is covered by the durability suites; this pins the cost
   model). *)
let test_spht_readonly_skips_buffer () =
  let _, heap, b = mk_backend Registry.Spht in
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

(* A crashed transaction's bucket versions carry the timestamp the
   restarted counter hands to the next commit; unless recovery retires
   them, that commit makes them valid and the next recovery revives the
   crashed write.  Every dirty word persists at both crashes. *)
let test_hashlog_crash_not_revived () =
  let pm, heap, b = mk_backend Registry.Hashlog in
  let base = Heap.alloc heap 64 in
  let x = base and z = base + 16 in
  let crash () = Pmem.crash_with pm ~persist:(fun _ -> true) in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write x 1);
  (try
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write x 2;
         raise Pmem.Crash)
   with Pmem.Crash -> ());
  crash ();
  b.Ctx.recover ();
  Alcotest.(check int) "first recovery revokes x = 2" 1
    (Pmem.peek_volatile_int pm x);
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write z 7);
  crash ();
  b.Ctx.recover ();
  Alcotest.(check (pair int int)) "the next commit does not revive it" (1, 7)
    (Pmem.peek_volatile_int pm x, Pmem.peek_volatile_int pm z)

(* ---------- the undo family ----------

   PMDK, Kamino-Tx and EDE are one undo-logging transaction
   ([Specpmt_txn.Undo]) over three logs. *)

let undo_family =
  [
    ("PMDK", fun heap -> Registry.create heap Registry.Pmdk);
    ("Kamino-Tx", fun heap -> Registry.create heap Registry.Kamino);
    ( "EDE",
      fun heap ->
        Specpmt_hwtxn.(Hw_registry.create heap Hw_registry.Ede) );
  ]

(* A seeded mix: 40 commits of 1-8 writes over 64 cells, the 17th
   aborted; a recoverable scheme then crashes in the middle of a 41st
   and recovers.  Every transaction stays far below the logs' 1,024-entry
   first region, so no log grows, and the run ends at the recovery, so
   nothing runs on the reattached log.  Returns the device's counters
   (the clocks as bits) and whether the cells read the committed image. *)
let undo_mix create =
  let pm = Pmem.create ~seed:29 Config.small in
  let heap = Heap.create pm in
  let b = create heap in
  let base = Heap.alloc heap (64 * 8) in
  let rng = Random.State.make [| 30 |] in
  let body ?(writes = 1 + Random.State.int rng 8) ctx =
    for _ = 1 to writes do
      let a = base + (8 * Random.State.int rng 64) in
      ctx.Ctx.write a (ctx.Ctx.read a + 1 + Random.State.int rng 1000)
    done
  in
  for i = 1 to 40 do
    if i = 17 then
      try
        b.Ctx.run_tx (fun ctx ->
            body ctx;
            raise Ctx.Abort)
      with Ctx.Abort -> ()
    else b.Ctx.run_tx body
  done;
  let committed = Testlib.read_cells pm base 64 in
  if b.Ctx.supports_recovery then begin
    (* the 25th event falls a few writes in, so recovery revokes
       several entries *)
    (match
       b.Ctx.run_tx (fun ctx ->
           Pmem.set_fuse pm (Some 25);
           body ~writes:8 ctx)
     with
    | () -> Alcotest.fail "the fuse never fired"
    | exception Pmem.Crash -> ());
    Pmem.crash pm;
    b.Ctx.recover ()
  end;
  let s = Pmem.stats pm in
  ( [
      ("loads", Int64.of_int s.Stats.loads);
      ("stores", Int64.of_int s.Stats.stores);
      ("clwbs", Int64.of_int s.Stats.clwbs);
      ("fences", Int64.of_int s.Stats.fences);
      ("nt_stores", Int64.of_int s.Stats.nt_stores);
      ("pm_write_lines", Int64.of_int s.Stats.pm_write_lines);
      ("ns", Int64.bits_of_float s.Stats.ns);
      ("bg_ns", Int64.bits_of_float s.Stats.bg_ns);
    ],
    Testlib.read_cells pm base 64 = committed )

(* taken from a run of the three schemes as separate backends, before
   they became logs under one [Undo] runtime; one store fewer each (and
   one clwb fewer for EDE) since a log's creation publishes its region
   slot alone, without a capacity slot *)
let undo_pinned =
  [
    ( "PMDK",
      [
        ("loads", 373L);
        ("stores", 780L);
        ("clwbs", 589L);
        ("fences", 263L);
        ("nt_stores", 0L);
        ("pm_write_lines", 554L);
        ("ns", 4684906809868156928L);
        ("bg_ns", 0L);
      ] );
    ( "Kamino-Tx",
      [
        ("loads", 358L);
        ("stores", 587L);
        ("clwbs", 402L);
        ("fences", 219L);
        ("nt_stores", 0L);
        ("pm_write_lines", 402L);
        ("ns", 4677801439311953920L);
        ("bg_ns", 0L);
      ] );
    ( "EDE",
      [
        ("loads", 394L);
        ("stores", 201L);
        ("clwbs", 189L);
        ("fences", 42L);
        ("nt_stores", 226L);
        ("pm_write_lines", 416L);
        ("ns", 4682607885673299968L);
        ("bg_ns", 0L);
      ] );
  ]

let test_undo_counters_pinned () =
  List.iter
    (fun (name, create) ->
      let counters, intact = undo_mix create in
      Alcotest.(check (list (pair string int64)))
        (name ^ " counters") (List.assoc name undo_pinned) counters;
      Alcotest.(check bool) (name ^ " cells read the committed image") true
        intact)
    undo_family

(* PMDK's first transaction after a recovery appended behind the crashed
   transaction's entries while it kept its pre-crash log handle: a crash
   in that transaction made the next recovery apply the stale entries
   again (8 stores here instead of 2: one entry and the zero count) *)
let test_recovery_adopts_log () =
  let pm, heap = Testlib.mk_pool ~seed:13 () in
  let b = Registry.create heap Registry.Pmdk in
  let base = Heap.alloc heap (8 * 8) in
  let crash_after_writes n =
    (try
       b.Ctx.run_tx (fun ctx ->
           for i = 0 to n - 1 do
             ctx.Ctx.write (base + (i * 8)) (100 + i)
           done;
           raise Pmem.Crash)
     with Pmem.Crash -> ());
    Pmem.crash pm
  in
  crash_after_writes 6;
  b.Ctx.recover ();
  crash_after_writes 1;
  let before = (Pmem.stats pm).Stats.stores in
  b.Ctx.recover ();
  Alcotest.(check int) "stores of the second recovery" 2
    ((Pmem.stats pm).Stats.stores - before);
  Alcotest.(check (array int)) "cells" (Array.make 8 0)
    (Testlib.read_cells pm base 8)

(* the 1,025th first write of a transaction doubles PMDK's log region *)
let test_pmdk_growth_crash () =
  Testlib.sweep_growth_crashes ~grow_at:1024 ~stride:7 (fun () ->
      let pm, heap = Testlib.mk_pool ~seed:3 () in
      let b = Registry.create heap Registry.Pmdk in
      let base = Heap.alloc heap (1030 * 8) in
      (pm, b, Array.init 1030 (fun i -> base + (i * 8))))

(* A crash anywhere in the switch of PMDK's first growth, with the
   region slot's word persisted or not, names the old 1,024-entry region
   or the doubled one.  The reattached log must take the capacity of the
   region it names: the next transaction of 1,100 writes then stays
   inside that region, or grows, and leaves the block's slack past the
   region's end as it was (DESIGN.md §8 bug 11). *)
let test_pmdk_growth_switch_crash () =
  let n = 1100 and grow_at = 1024 in
  let run ~before_write =
    let pm, heap = Testlib.mk_pool ~seed:3 () in
    let b = Registry.create heap Registry.Pmdk in
    let slot = Heap.root_slot heap Slots.pmdk_region in
    let first = Pmem.peek_volatile_int pm slot in
    let base = Heap.alloc heap (n * 8) in
    let cells = Array.init n (fun i -> base + (i * 8)) in
    Array.iteri
      (fun i a ->
        Pmem.store_int pm a i;
        Pmem.clwb pm a)
      cells;
    Pmem.sfence pm;
    (try
       b.Ctx.run_tx (fun ctx ->
           Array.iteri
             (fun i a ->
               before_write pm i;
               ctx.Ctx.write a (-1 - i))
             cells)
     with Pmem.Crash -> ());
    Pmem.set_fuse pm None;
    (* the switch has not stored the region slot yet *)
    let before_switch = Pmem.peek_volatile_int pm slot = first in
    (pm, heap, b, cells, slot, before_switch)
  in
  let marks = Array.make 2 0 in
  ignore
    (run ~before_write:(fun pm i ->
         if i = grow_at || i = grow_at + 1 then
           marks.(i - grow_at) <- Pmem.events pm));
  let read pm cells = Array.map (Pmem.peek_volatile_int pm) cells in
  let named = ref [] in
  (* the switch stores the region slot near the end of the growing
     write: crash at every event from the last one before that store to
     the write's end *)
  let rec sweep fuse =
    let crash persist =
      let pm, heap, b, cells, slot, before_switch =
        run ~before_write:(fun pm i ->
            if i = grow_at then Pmem.set_fuse pm (Some fuse))
      in
      Pmem.crash_with pm ~persist:(fun a -> persist && a = slot);
      let region = Pmem.peek_media_int pm slot in
      let capacity = Pmem.peek_media_int pm region in
      named := capacity :: !named;
      b.Ctx.recover ();
      let case =
        Printf.sprintf "crash at event %d of the growing write, region \
                        slot %spersisted"
          fuse
          (if persist then "" else "not ")
      in
      Alcotest.(check (array int))
        (case ^ ": recovered cells") (Array.init n Fun.id) (read pm cells);
      let region_end = region + 16 + (capacity * 16) in
      let slack =
        Array.init
          ((region + Heap.usable_size heap region - region_end) / 8)
          (fun w -> Pmem.peek_volatile_int pm (region_end + (w * 8)))
      in
      b.Ctx.run_tx (fun ctx ->
          Array.iteri (fun i a -> ctx.Ctx.write a (n + i)) cells);
      Array.iteri
        (fun w v ->
          let a = region_end + (w * 8) in
          if Pmem.peek_volatile_int pm a <> v then
            Alcotest.failf "%s: the word %d bytes past the %d-entry \
                            region's end changed"
              case (a - region_end) capacity)
        slack;
      Alcotest.(check (array int))
        (case ^ ": committed cells") (Array.init n (( + ) n)) (read pm cells);
      before_switch
    in
    if fuse < 1 then Alcotest.fail "no crash point precedes the switch"
    else
      let before_switch = crash true in
      ignore (crash false);
      if not before_switch then sweep (fuse - 1)
  in
  sweep (marks.(1) - marks.(0));
  Alcotest.(check (list int))
    "regions named" [ 1024; 2048 ]
    (List.sort_uniq compare !named)

let () =
  Alcotest.run "backends"
    [
      ("durability", durability_cases);
      ( "atomic durability (property)",
        List.map
          (fun k -> QCheck_alcotest.to_alcotest (prop_atomic_durability k))
          recoverable );
      ( "multi-threaded",
        [
          Alcotest.test_case "interleaved recovery by timestamp" `Quick
            test_mt_interleaved_recovery;
          Alcotest.test_case "crash revokes only the open tx" `Quick
            test_mt_crash_revokes_only_open_tx;
          Alcotest.test_case "a thread's recover is the pool's" `Quick
            test_mt_member_recover_is_pool_recover;
          QCheck_alcotest.to_alcotest prop_mt_atomic_durability;
          Alcotest.test_case "coherence scenario (section 5.1)" `Quick
            test_coherence_scenario_51;
          Alcotest.test_case "thread cap scales with root slots" `Quick
            test_mt_thread_cap_lifted;
          Alcotest.test_case "8-thread pool crash + recover" `Quick
            test_mt_eight_threads_crash_recover;
        ] );
      ( "specpmt specifics",
        [
          Alcotest.test_case "fence economy" `Quick test_spec_fence_economy;
          Alcotest.test_case "no data flush" `Quick test_spec_no_data_flush;
          Alcotest.test_case "reclamation bounds log" `Quick
            test_spec_reclamation_bounds_log;
          Alcotest.test_case "reclamation waits for twice the compacted size"
            `Quick test_spec_reclaim_trigger;
          Alcotest.test_case "external data snapshot" `Quick
            test_spec_snapshot_external_data;
          Alcotest.test_case "kamino recovery unsupported" `Quick
            test_kamino_recovery_unsupported;
          Alcotest.test_case "mechanism switch (4.3.1)" `Quick
            test_mechanism_switch;
          Alcotest.test_case "switch_out crash-atomic" `Slow
            test_switch_out_crash_atomic;
          Alcotest.test_case "coalesced recovery writes each cell once" `Quick
            test_recover_coalesces_stale_overwrites;
          QCheck_alcotest.to_alcotest prop_mt_recovery_differential;
          Alcotest.test_case "reattach is one attach" `Quick
            test_reattach_is_one_attach;
          Alcotest.test_case "reclaim is one compact" `Quick
            test_reclaim_is_one_compact;
          Alcotest.test_case "crash at every recovery event (SpecSPMT)"
            `Quick (test_crash_at_every_recovery_event ~threads:1);
          Alcotest.test_case
            "crash at every recovery event (SpecSPMT-MT, 3 threads)" `Quick
            (test_crash_at_every_recovery_event ~threads:3);
          Alcotest.test_case "batch API guards" `Quick test_batch_api_guards;
          Alcotest.test_case "batch seals under one fence" `Quick
            test_batch_single_fence;
        ] );
      ( "recovery budget",
        [
          Alcotest.test_case "each log walked once" `Quick
            test_recovery_walks_each_log_once;
          Alcotest.test_case "each restored line drained once, ascending"
            `Quick test_recovery_drains_lines_in_order;
        ] );
      ( "undo family",
        [
          Alcotest.test_case "device counters pinned" `Quick
            test_undo_counters_pinned;
          Alcotest.test_case "recovery adopts the reattached log" `Quick
            test_recovery_adopts_log;
        ] );
      ( "log growth",
        [
          Alcotest.test_case "PMDK: crash inside the growth" `Quick
            test_pmdk_growth_crash;
          Alcotest.test_case "PMDK: reattach after a crash in the switch"
            `Quick test_pmdk_growth_switch_crash;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "compaction preserves replay order" `Quick
            test_mt_compaction_preserves_replay_order;
          Alcotest.test_case "switch_out invalidates log" `Quick
            test_switch_out_invalidates_log;
          Alcotest.test_case "switch_out flushes exactly the logged cells"
            `Quick test_switch_out_flush_set;
          Alcotest.test_case "abort releases allocations" `Quick
            test_abort_releases_allocations;
          Alcotest.test_case "spht read-only tx skips the write buffer"
            `Quick test_spht_readonly_skips_buffer;
          Alcotest.test_case "hashlog crashed tx not revived by next commit"
            `Quick test_hashlog_crash_not_revived;
        ] );
    ]
