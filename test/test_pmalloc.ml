open Specpmt_pmem
open Specpmt_pmalloc

let mk () =
  let pm = Pmem.create Config.small in
  (pm, Heap.create pm)

let test_alignment () =
  let _, heap = mk () in
  for n = 1 to 200 do
    let a = Heap.alloc heap n in
    Alcotest.(check bool) "8-aligned" true (Addr.is_word_aligned a);
    Alcotest.(check bool) "in heap" true (a >= Layout.heap_base);
    Alcotest.(check bool) "usable" true (Heap.usable_size heap a >= n)
  done

let test_no_overlap () =
  let _, heap = mk () in
  let blocks = List.init 100 (fun i -> (Heap.alloc heap ((i mod 60) + 1), (i mod 60) + 1)) in
  let ranges = List.map (fun (a, _) -> (a, a + Heap.usable_size heap a)) blocks in
  List.iteri
    (fun i (s1, e1) ->
      List.iteri
        (fun j (s2, e2) ->
          if i < j then
            Alcotest.(check bool) "disjoint" true (e1 <= s2 || e2 <= s1))
        ranges)
    ranges

let test_reuse_after_free () =
  let _, heap = mk () in
  let a = Heap.alloc heap 64 in
  Heap.free heap a;
  let b = Heap.alloc heap 64 in
  Alcotest.(check int) "same block reused" a b

let test_double_free () =
  let _, heap = mk () in
  let a = Heap.alloc heap 32 in
  Heap.free heap a;
  Alcotest.(check bool) "double free raises" true
    (try
       Heap.free heap a;
       false
     with Invalid_argument _ -> true)

let test_live_bytes () =
  let _, heap = mk () in
  let a = Heap.alloc heap 100 in
  let live1 = Heap.live_bytes heap in
  Heap.free heap a;
  Alcotest.(check bool) "live shrinks on free" true (Heap.live_bytes heap < live1)

let test_open_existing_rebuilds_free_lists () =
  let pm, heap = mk () in
  let a = Heap.alloc heap 64 in
  let b = Heap.alloc heap 64 in
  Heap.free heap a;
  (* persist all headers so the walk can see them *)
  Pmem.with_unmetered pm (fun () ->
      Pmem.flush_range pm 0 (Heap.used_bytes heap + Layout.heap_base);
      Pmem.sfence pm);
  Pmem.crash pm;
  let heap2 = Heap.open_existing pm in
  let c = Heap.alloc heap2 64 in
  Alcotest.(check int) "freed block found by walk" a c;
  let d = Heap.alloc heap2 64 in
  Alcotest.(check bool) "allocated block not reissued" true (d <> b && d <> a)

let test_create_twice_rejected () =
  let pm, _ = mk () in
  (* the magic is persisted by create *)
  Alcotest.(check bool) "second create rejected" true
    (try
       ignore (Heap.create pm);
       false
     with Invalid_argument _ -> true)

let test_headers_survive_crash () =
  (* allocator metadata is flushed eagerly: even with zero spontaneous
     persistence, a crash right after [alloc] must not regress the bump
     pointer over the allocation (or recovered data could be overwritten) *)
  let pm2 = Pmem.create { Config.small with crash_word_persist_prob = 0.0 } in
  let heap2 = Heap.create pm2 in
  let a = Heap.alloc heap2 64 in
  Pmem.crash pm2;
  let heap3 = Heap.open_existing pm2 in
  Alcotest.(check bool) "allocation still reserved" true
    (Heap.used_bytes heap3 >= (a + 64) - Layout.heap_base);
  let b = Heap.alloc heap3 64 in
  Alcotest.(check bool) "new allocation does not overlap" true
    (b >= a + 64 || b + 64 <= a)

let prop_alloc_free_random =
  QCheck.Test.make ~name:"random alloc/free keeps invariants" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_range 1 300) bool))
    (fun script ->
      let _, heap = mk () in
      let live = ref [] in
      List.iter
        (fun (n, do_free) ->
          if do_free && !live <> [] then begin
            let a = List.hd !live in
            live := List.tl !live;
            Heap.free heap a
          end
          else begin
            let a = Heap.alloc heap n in
            (* no overlap with currently live blocks *)
            List.iter
              (fun b ->
                let ea = a + Heap.usable_size heap a
                and eb = b + Heap.usable_size heap b in
                assert (ea <= b || eb <= a))
              !live;
            live := a :: !live
          end)
        script;
      true)

(* the log zone's bytes: every log block handed out, freed or not, with
   its header, and no data block; the same after a crash and [recover],
   which reads the zone's bump cell back *)
let test_log_zone_bytes () =
  let pm, heap = mk () in
  Alcotest.(check int) "empty zone" 0 (Heap.log_zone_bytes heap);
  let blocks = List.init 6 (fun _ -> Heap.alloc_log heap 512) in
  let zone = 6 * (512 + 8) in
  Alcotest.(check int) "six blocks" zone (Heap.log_zone_bytes heap);
  List.iteri (fun i b -> if i mod 2 = 0 then Heap.free heap b) blocks;
  ignore (Heap.alloc heap 512);
  Alcotest.(check int) "frees and data allocations do not move it" zone
    (Heap.log_zone_bytes heap);
  Pmem.crash pm;
  Heap.recover heap;
  Alcotest.(check int) "read back by recover" zone (Heap.log_zone_bytes heap);
  ignore (Heap.alloc_log heap 512);
  Alcotest.(check int) "a free block reused" zone (Heap.log_zone_bytes heap);
  ignore (Heap.alloc_log heap 1024);
  Alcotest.(check int) "a fresh block" (zone + 1024 + 8)
    (Heap.log_zone_bytes heap)

let () =
  Alcotest.run "pmalloc"
    [
      ( "alloc",
        [
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "no overlap" `Quick test_no_overlap;
          Alcotest.test_case "reuse after free" `Quick test_reuse_after_free;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "live bytes" `Quick test_live_bytes;
          QCheck_alcotest.to_alcotest prop_alloc_free_random;
        ] );
      ( "pool",
        [
          Alcotest.test_case "open_existing rebuilds" `Quick
            test_open_existing_rebuilds_free_lists;
          Alcotest.test_case "create twice rejected" `Quick
            test_create_twice_rejected;
          Alcotest.test_case "headers survive crash" `Quick
            test_headers_survive_crash;
          Alcotest.test_case "log zone bytes" `Quick test_log_zone_bytes;
        ] );
    ]
