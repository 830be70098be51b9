open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn
open Specpmt_pstruct

let mk () =
  let pm = Pmem.create Config.small in
  let heap = Heap.create pm in
  (pm, heap, Ctx.raw_ctx heap)

(* parray *)

let test_parray_roundtrip () =
  let _, _, ctx = mk () in
  let a = Parray.create ctx 16 in
  Parray.fill ctx a 0;
  for i = 0 to 15 do
    Parray.set ctx a i (i * i)
  done;
  Alcotest.(check (list int))
    "roundtrip"
    (List.init 16 (fun i -> i * i))
    (Parray.to_list ctx a)

let test_parray_bounds () =
  let _, _, ctx = mk () in
  let a = Parray.create ctx 4 in
  Alcotest.(check bool) "oob raises" true
    (try
       ignore (Parray.get ctx a 4);
       false
     with Invalid_argument _ -> true)

(* phashtbl vs Hashtbl reference *)

let prop_phashtbl_matches_hashtbl =
  QCheck.Test.make ~name:"phashtbl behaves like Hashtbl" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 120)
        (triple (int_bound 60) (int_bound 10_000) (int_bound 9)))
    (fun ops ->
      let _, _, ctx = mk () in
      let t = Phashtbl.create ctx 8 (* tiny: collisions guaranteed *) in
      let r : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (k, v, action) ->
          if action < 6 then begin
            ignore (Phashtbl.replace ctx t k v);
            Hashtbl.replace r k v
          end
          else if action < 8 then begin
            let added = Phashtbl.add_if_absent ctx t k v in
            if not (Hashtbl.mem r k) then begin
              assert added;
              Hashtbl.replace r k v
            end
            else assert (not added)
          end
          else begin
            let removed = Phashtbl.remove ctx t k in
            assert (removed = Hashtbl.mem r k);
            Hashtbl.remove r k
          end;
          assert (Phashtbl.length ctx t = Hashtbl.length r))
        ops;
      Hashtbl.fold
        (fun k v acc -> acc && Phashtbl.find ctx t k = Some v)
        r true
      && Phashtbl.fold ctx t (fun k v acc -> acc && Hashtbl.find_opt r k = Some v) true)

(* pqueue vs Queue reference *)

let prop_pqueue_matches_queue =
  QCheck.Test.make ~name:"pqueue behaves like Queue" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (pair (int_bound 1000) bool))
    (fun ops ->
      let _, _, ctx = mk () in
      let t = Pqueue.create ctx in
      let r = Queue.create () in
      List.iter
        (fun (v, pop) ->
          if pop then begin
            let expect = if Queue.is_empty r then None else Some (Queue.pop r) in
            assert (Pqueue.pop ctx t = expect)
          end
          else begin
            Pqueue.push ctx t v;
            Queue.push v r
          end;
          assert (Pqueue.size ctx t = Queue.length r))
        ops;
      true)

(* ptreap vs Map reference *)

module IntMap = Map.Make (Int)

let prop_ptreap_matches_map =
  QCheck.Test.make ~name:"ptreap behaves like Map" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 120)
        (triple (int_bound 100) (int_bound 10_000) (int_bound 9)))
    (fun ops ->
      let _, _, ctx = mk () in
      let t = Ptreap.create ctx in
      let r = ref IntMap.empty in
      List.iter
        (fun (k, v, action) ->
          if action < 6 then begin
            Ptreap.insert ctx t k v;
            r := IntMap.add k v !r
          end
          else if action < 8 then begin
            let removed = Ptreap.remove ctx t k in
            assert (removed = IntMap.mem k !r);
            r := IntMap.remove k !r
          end
          else begin
            (* ceiling query *)
            let expect = IntMap.find_first_opt (fun k' -> k' >= k) !r in
            assert (Ptreap.find_ceiling ctx t k = expect)
          end)
        ops;
      (* full ordered iteration agrees *)
      let got = ref [] in
      Ptreap.iter ctx t (fun k v -> got := (k, v) :: !got);
      List.rev !got = IntMap.bindings !r
      && Ptreap.length ctx t = IntMap.cardinal !r)

(* pbtree: directed structural coverage at order 4 *)

let test_pbtree_structure () =
  let _, _, ctx = mk () in
  let t = Pbtree.create ~order:4 ctx () in
  Pbtree.check ctx t;
  Alcotest.(check (list (pair int int))) "empty range" []
    (Pbtree.range ctx t ~lo:0 ~hi:100);
  (* ascending bulk insert: leaf splits, internal splits, root growth *)
  for k = 0 to 60 do
    Pbtree.insert ctx t k (k * 7);
    Pbtree.check ctx t
  done;
  let st = Pbtree.stats t in
  Alcotest.(check bool) "leaf splits" true (st.Pbtree.leaf_splits > 0);
  Alcotest.(check bool) "internal splits" true (st.Pbtree.internal_splits > 0);
  Alcotest.(check bool) "root grows" true (st.Pbtree.root_grows > 1);
  Alcotest.(check int) "length" 61 (Pbtree.length ctx t);
  Alcotest.(check bool) "height > 2" true (Pbtree.height ctx t > 2);
  (* range semantics at the edges *)
  Alcotest.(check (list (pair int int)))
    "interior range"
    (List.init 4 (fun i -> (5 + i, (5 + i) * 7)))
    (Pbtree.range ctx t ~lo:5 ~hi:8);
  Alcotest.(check (list (pair int int)))
    "clipped range" [ (60, 420) ]
    (Pbtree.range ctx t ~lo:60 ~hi:10_000);
  (* early-stop iteration: first 3 entries from an interior anchor *)
  let got = ref [] and left = ref 3 in
  Pbtree.iter_from ctx t ~lo:17 (fun k v ->
      got := (k, v) :: !got;
      decr left;
      !left > 0);
  Alcotest.(check (list (pair int int)))
    "iter_from stops"
    [ (17, 119); (18, 126); (19, 133) ]
    (List.rev !got);
  (* overwrite does not change the count *)
  Pbtree.insert ctx t 17 999;
  Alcotest.(check int) "overwrite keeps length" 61 (Pbtree.length ctx t);
  Alcotest.(check (option int)) "overwrite lands" (Some 999)
    (Pbtree.find ctx t 17);
  (* handle rediscovery from the persisted header *)
  let t2 = Pbtree.of_header ctx (Pbtree.header t) in
  Alcotest.(check int) "of_header order" 4 (Pbtree.order t2);
  Alcotest.(check (option int)) "of_header finds" (Some 999)
    (Pbtree.find ctx t2 17);
  (* ascending removal of everything: borrows/merges and root shrink *)
  for k = 0 to 60 do
    Alcotest.(check bool) "removed" true (Pbtree.remove ctx t k);
    Pbtree.check ctx t
  done;
  Alcotest.(check bool) "absent remove" false (Pbtree.remove ctx t 5);
  Alcotest.(check int) "emptied" 0 (Pbtree.length ctx t);
  Alcotest.(check int) "height back to 1" 1 (Pbtree.height ctx t);
  Alcotest.(check bool) "merges" true (st.Pbtree.merges > 0);
  Alcotest.(check bool) "root shrinks" true (st.Pbtree.root_shrinks > 1)

(* pbtree vs Map reference: insert/overwrite/remove/range *)

let prop_pbtree_matches_map =
  QCheck.Test.make ~name:"pbtree behaves like Map" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 150)
        (triple (int_bound 200) (int_bound 10_000) (int_bound 9)))
    (fun ops ->
      let _, _, ctx = mk () in
      let t = Pbtree.create ~order:4 ctx () in
      let r = ref IntMap.empty in
      List.iteri
        (fun i (k, v, action) ->
          if action < 6 then begin
            Pbtree.insert ctx t k v;
            r := IntMap.add k v !r
          end
          else if action < 8 then begin
            let removed = Pbtree.remove ctx t k in
            assert (removed = IntMap.mem k !r);
            r := IntMap.remove k !r
          end
          else begin
            let hi = k + (v mod 40) in
            let expect =
              IntMap.bindings (IntMap.filter (fun k' _ -> k' >= k && k' <= hi) !r)
            in
            assert (Pbtree.range ctx t ~lo:k ~hi = expect)
          end;
          if i land 15 = 0 then Pbtree.check ctx t)
        ops;
      Pbtree.check ctx t;
      Pbtree.fold ctx t (fun k v acc -> (k, v) :: acc) [] |> List.rev
      = IntMap.bindings !r
      && Pbtree.length ctx t = IntMap.cardinal !r)

(* pbtree under a crash at a random persistence event: recover, audit
   the surviving prefix against the Map model, rediscover the handle
   from its header, finish the sequence, audit again *)

let prop_pbtree_crash_recover =
  QCheck.Test.make ~name:"pbtree crash/recover matches a Map prefix" ~count:60
    QCheck.(
      triple
        (list_of_size Gen.(10 -- 80)
           (triple (int_bound 150) (int_bound 10_000) (int_bound 8)))
        (int_bound 4_000) small_nat)
    (fun (ops, fuse, seed) ->
      let pm =
        Pmem.create ~seed { Config.small with crash_word_persist_prob = 0.6 }
      in
      let heap = Heap.create pm in
      let b =
        Specpmt_backends.Registry.create heap Specpmt_backends.Registry.Spec
      in
      let t = b.Ctx.run_tx (fun ctx -> Pbtree.create ~order:4 ctx ()) in
      (* model after each committed transaction (one op per tx) *)
      let models = Array.make (List.length ops + 1) IntMap.empty in
      List.iteri
        (fun i (k, v, action) ->
          models.(i + 1) <-
            (if action < 6 then IntMap.add k v models.(i)
             else IntMap.remove k models.(i)))
        ops;
      let apply ctx (k, v, action) =
        if action < 6 then Pbtree.insert ctx t k v
        else ignore (Pbtree.remove ctx t k)
      in
      Pmem.set_fuse pm (Some (1 + fuse));
      let committed = ref 0 in
      let crashed =
        try
          List.iter
            (fun op ->
              b.Ctx.run_tx (fun ctx -> apply ctx op);
              incr committed)
            ops;
          Pmem.set_fuse pm None;
          false
        with Pmem.Crash -> true
      in
      if crashed then begin
        Pmem.crash pm;
        b.Ctx.recover ()
      end;
      (* rediscover through the persisted header, as recovery would *)
      let ctx = Ctx.raw_ctx heap in
      let t' = Pbtree.of_header ctx (Pbtree.header t) in
      Pbtree.check ctx t';
      let bindings () =
        List.rev (Pbtree.fold ctx t' (fun k v acc -> (k, v) :: acc) [])
      in
      (* atomic durability: the tree matches the model after [committed]
         txs, or [committed + 1] when the crash hit after the commit
         point but before control returned *)
      let c = !committed in
      let resume =
        if bindings () = IntMap.bindings models.(c) then c
        else if
          c + 1 < Array.length models
          && bindings () = IntMap.bindings models.(c + 1)
        then c + 1
        else -1
      in
      if resume < 0 then false
      else begin
        (* finish the sequence on the recovered tree *)
        List.iteri
          (fun i (k, v, action) ->
            if i >= resume then
              b.Ctx.run_tx (fun ctx ->
                  if action < 6 then Pbtree.insert ctx t' k v
                  else ignore (Pbtree.remove ctx t' k)))
          ops;
        Pbtree.check ctx t';
        bindings () = IntMap.bindings models.(Array.length models - 1)
      end)

(* shadow mirror: directed coherence checks, then the qcheck
   differential against a fresh peek rebuild *)

(* a mirrored raw-ctx handle stays coherent (the immediate-fire hook
   path), and the mirror serves the same answers as the media; the
   inserts after the removals reuse the addresses of nodes the merges
   freed, which a raw ctx returns to the heap at once *)
let test_shadow_raw_coherent () =
  let pm, _, raw = mk () in
  let freed = ref [] and reused = ref 0 in
  let ctx =
    {
      raw with
      Ctx.free =
        (fun a ->
          freed := a :: !freed;
          raw.Ctx.free a);
      alloc =
        (fun n ->
          let a = raw.Ctx.alloc n in
          if List.mem a !freed then incr reused;
          a);
    }
  in
  let t = Pbtree.create ~order:4 ctx () in
  Pbtree.attach_shadow ctx t;
  for i = 0 to 199 do
    Pbtree.insert ctx t (i * 17 mod 201) i
  done;
  for i = 0 to 49 do
    ignore (Pbtree.remove ctx t (i * 29 mod 201))
  done;
  Pbtree.verify_shadow ctx t;
  for i = 0 to 99 do
    Pbtree.insert ctx t (1000 + (i * 7 mod 101)) i
  done;
  Alcotest.(check bool) "freed node addresses reused" true (!reused > 0);
  Pbtree.check ctx t;
  Pbtree.verify_shadow ctx t;
  (match Pbtree.shadow t with
  | None -> Alcotest.fail "mirror detached"
  | Some sh ->
      let hits, misses, _ = Shadow.totals sh in
      Alcotest.(check int) "no mirror misses" 0 misses;
      Alcotest.(check bool) "mirror served descents" true (hits > 0));
  ignore pm

(* a transaction that aborts leaves the mirror exactly where the media
   is: staged deltas drop with the rollback *)
let test_shadow_abort_drops_stage () =
  let pm = Pmem.create ~seed:3 Config.small in
  let heap = Heap.create pm in
  let b =
    Specpmt_backends.Registry.create heap Specpmt_backends.Registry.Spec
  in
  let t = b.Ctx.run_tx (fun ctx -> Pbtree.create ~order:4 ctx ()) in
  Pbtree.attach_shadow (Ctx.peek_ctx pm) t;
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 40 do
        Pbtree.insert ctx t i (i * 3)
      done);
  (try
     b.Ctx.run_tx (fun ctx ->
         (* enough churn to split nodes and free one before rolling back *)
         for i = 41 to 80 do
           Pbtree.insert ctx t i 1
         done;
         for i = 0 to 30 do
           ignore (Pbtree.remove ctx t i)
         done;
         raise Ctx.Abort)
   with Ctx.Abort -> ());
  let ctx = Ctx.peek_ctx pm in
  Pbtree.check ctx t;
  Pbtree.verify_shadow ctx t;
  Alcotest.(check int) "aborted inserts invisible" 41 (Pbtree.length ctx t)

(* The mirror's counters and the device traffic of a seeded mix, pinned.
   A hit or miss is counted per mirror read — one per cell a mutation
   reads, one per node a descent, slot search or leaf walk serves whole
   — so counting one per node visited fails here, as does one more
   device read on either tree.  The mirrored order-8 tree runs each op
   in its own SpecSPMT transaction, so the stores include the log; the
   unmirrored order-4 tree runs on a raw ctx, so the counters are the
   tree's own accesses. *)
let pinned_mix ~order ~mirrored =
  let pm = Pmem.create ~seed:5 Config.small in
  let heap = Heap.create pm in
  let b =
    Specpmt_backends.Registry.create heap Specpmt_backends.Registry.Spec
  in
  let run_tx f = if mirrored then b.Ctx.run_tx f else f (Ctx.raw_ctx heap) in
  let t = run_tx (fun ctx -> Pbtree.create ~order ctx ()) in
  if mirrored then Pbtree.attach_shadow (Ctx.peek_ctx pm) t;
  let before = Stats.copy (Pmem.stats pm) in
  let rng = Random.State.make [| 28 |] in
  let sum = ref 0 in
  for _ = 1 to 3_000 do
    let k = 1 + Random.State.int rng 600 and op = Random.State.int rng 10 in
    run_tx (fun ctx ->
        if op < 5 then Pbtree.insert ctx t k (op * k)
        else if op < 7 then ignore (Pbtree.remove ctx t k)
        else if op < 9 then
          sum := !sum + Option.value ~default:(-1) (Pbtree.find ctx t k)
        else begin
          let left = ref 8 in
          Pbtree.iter_from ctx t ~lo:k (fun k v ->
              sum := (!sum * 31) + k + v;
              decr left;
              !left > 0)
        end)
  done;
  let d = Stats.diff before (Pmem.stats pm) in
  let ctx = Ctx.peek_ctx pm in
  Pbtree.check ctx t;
  if mirrored then Pbtree.verify_shadow ctx t;
  (t, !sum land 0xFFFF_FFFF, Pbtree.length ctx t, d.Stats.loads, d.Stats.stores)

let test_shadow_counters_pinned () =
  let t, sum, len, loads, stores = pinned_mix ~order:8 ~mirrored:true in
  let hits, misses, size =
    match Pbtree.shadow t with
    | None -> Alcotest.fail "mirror detached"
    | Some sh ->
        let h, m, _ = Shadow.totals sh in
        (h, m, Shadow.size sh)
  in
  Alcotest.(check (list int))
    "mirrored order 8: sum, length, hits, misses, size, loads, stores"
    (* 103 tree nodes, plus the header mirrored as one more node *)
    [ 158399975; 426; 55418; 0; 103 + 1; 53935; 63999 ]
    [ sum; len; hits; misses; size; loads; stores ];
  let t, sum, len, loads, stores = pinned_mix ~order:4 ~mirrored:false in
  Alcotest.(check bool) "unmirrored" true (Pbtree.shadow t = None);
  Alcotest.(check (list int))
    "unmirrored order 4: sum, length, loads, stores"
    [ 158399975; 426; 137868; 36597 ]
    [ sum; len; loads; stores ]

let prop_shadow_differential =
  QCheck.Test.make ~name:"shadow mirror equals a fresh peek rebuild"
    ~count:40
    QCheck.(
      triple
        (list_of_size Gen.(10 -- 80)
           (triple (int_bound 150) (int_bound 10_000) (int_bound 8)))
        (int_bound 4_000) small_nat)
    (fun (ops, fuse, seed) ->
      let pm =
        Pmem.create ~seed { Config.small with crash_word_persist_prob = 0.6 }
      in
      let heap = Heap.create pm in
      let b =
        Specpmt_backends.Registry.create heap Specpmt_backends.Registry.Spec
      in
      let t = b.Ctx.run_tx (fun ctx -> Pbtree.create ~order:4 ctx ()) in
      Pbtree.attach_shadow (Ctx.peek_ctx pm) t;
      let apply ctx (k, v, action) =
        if action < 6 then Pbtree.insert ctx t k v
        else ignore (Pbtree.remove ctx t k)
      in
      Pmem.set_fuse pm (Some (1 + fuse));
      let crashed =
        try
          List.iter (fun op -> b.Ctx.run_tx (fun ctx -> apply ctx op)) ops;
          Pmem.set_fuse pm None;
          false
        with Pmem.Crash -> true
      in
      if crashed then begin
        Pmem.crash pm;
        b.Ctx.recover ();
        (* the pre-crash mirror is never reused — a crash inside the
           commit protocol fires no outcome hook, yet can leave the tx
           durable — so rebuild from the replayed media and keep
           churning with the live mirror on *)
        Pbtree.detach_shadow t;
        Pbtree.attach_shadow (Ctx.peek_ctx pm) t;
        List.iter (fun op -> b.Ctx.run_tx (fun ctx -> apply ctx op)) ops
      end;
      (* (1) the incrementally-maintained mirror field-equals the media *)
      let ctx = Ctx.peek_ctx pm in
      Pbtree.verify_shadow ctx t;
      (* (2) and serves the same bindings as a freshly rebuilt mirror on
         a rediscovered handle of the same tree *)
      let t' = Pbtree.of_header ctx (Pbtree.header t) in
      Pbtree.check ctx t';
      Pbtree.attach_shadow ctx t';
      Pbtree.verify_shadow ctx t';
      let walk h =
        List.rev (Pbtree.fold ctx h (fun k v acc -> (k, v) :: acc) [])
      in
      walk t = walk t' && Pbtree.length ctx t = Pbtree.length ctx t')

(* structures running inside transactions recover correctly *)

let test_structures_under_crash () =
  let pm =
    Pmem.create ~seed:17 { Config.small with crash_word_persist_prob = 0.7 }
  in
  let heap = Heap.create pm in
  let b =
    Specpmt_backends.Registry.create heap Specpmt_backends.Registry.Spec
  in
  let t, q = b.Ctx.run_tx (fun ctx -> (Phashtbl.create ctx 16, Pqueue.create ctx)) in
  for i = 1 to 30 do
    b.Ctx.run_tx (fun ctx ->
        ignore (Phashtbl.replace ctx t i (i * 7));
        Pqueue.push ctx q i)
  done;
  (* crash mid-mutation *)
  (try
     b.Ctx.run_tx (fun ctx ->
         ignore (Phashtbl.replace ctx t 99 1);
         Pmem.set_fuse pm (Some 2);
         Pqueue.push ctx q 99)
   with Pmem.Crash -> ());
  Pmem.crash pm;
  b.Ctx.recover ();
  let ctx = Ctx.raw_ctx heap in
  Alcotest.(check int) "30 keys survive" 30 (Phashtbl.length ctx t);
  Alcotest.(check (option int)) "value intact" (Some 70) (Phashtbl.find ctx t 10);
  Alcotest.(check (option int)) "revoked key gone" None (Phashtbl.find ctx t 99);
  Alcotest.(check int) "queue intact" 30 (Pqueue.size ctx q)

let () =
  Alcotest.run "pstruct"
    [
      ( "parray",
        [
          Alcotest.test_case "roundtrip" `Quick test_parray_roundtrip;
          Alcotest.test_case "bounds" `Quick test_parray_bounds;
        ] );
      ( "model equivalence",
        [
          QCheck_alcotest.to_alcotest prop_phashtbl_matches_hashtbl;
          QCheck_alcotest.to_alcotest prop_pqueue_matches_queue;
          QCheck_alcotest.to_alcotest prop_ptreap_matches_map;
          QCheck_alcotest.to_alcotest prop_pbtree_matches_map;
        ] );
      ( "pbtree",
        [
          Alcotest.test_case "structure" `Quick test_pbtree_structure;
          QCheck_alcotest.to_alcotest prop_pbtree_crash_recover;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "raw-ctx mirror coherent" `Quick
            test_shadow_raw_coherent;
          Alcotest.test_case "abort drops the stage" `Quick
            test_shadow_abort_drops_stage;
          Alcotest.test_case "counters pinned" `Quick
            test_shadow_counters_pinned;
          QCheck_alcotest.to_alcotest prop_shadow_differential;
        ] );
      ( "transactional",
        [
          Alcotest.test_case "crash recovery" `Quick
            test_structures_under_crash;
        ] );
    ]
