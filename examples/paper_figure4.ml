(* A literate replay of the paper's Figure 4: two transactions updating
   locations a and b, with the persistent memory state inspected at each
   of the figure's four snapshots.

     dune exec examples/paper_figure4.exe

   tx_begin(); a = 1; b = 0; tx_end();       -- snapshot 1
   tx_begin(); a = 2; b = 10;                -- snapshot 2 (before commit)
   tx_end();                                 -- snapshot 3
   reclaim_log();                            -- snapshot 4 *)

open Specpmt
module Slots = Specpmt_backends.Slots

let dump_log pm tag =
  Printf.printf "%s\n  log:" tag;
  let n = ref 0 in
  ignore
    (Log_arena.recover_scan pm ~head_slot:Slots.spec_head ~block_bytes:4096
       ~f:(fun ~ts addrs vals k ->
         incr n;
         Printf.printf " [tx commit ts=%d:" ts;
         for i = 0 to k - 1 do
           Printf.printf " (&%#x,%d)" addrs.(i) vals.(i)
         done;
         Printf.printf "]"));
  if !n = 0 then Printf.printf " (empty)";
  Printf.printf "\n"

let () =
  let pm =
    Pmem.create { Pmem_config.default with crash_word_persist_prob = 0.0 }
  in
  let heap = Heap.create pm in
  let backend, runtime = Spec_soft.create heap Spec_soft.default_params in
  let a = Heap.alloc heap 8 and b = Heap.alloc heap 8 in
  Printf.printf "a at %#x, b at %#x\n\n" a b;

  (* tx #1 *)
  backend.Ctx.run_tx (fun ctx ->
      ctx.Ctx.write a 1;
      ctx.Ctx.write b 0);
  dump_log pm "snapshot 1 — tx1 committed";
  Printf.printf "  data (media): a=%d b=%d   <- not flushed, still volatile\n\n"
    (Pmem.peek_media_int pm a) (Pmem.peek_media_int pm b);

  (* tx #2, interrupted before commit: the figure's second snapshot notes
     that tx1's log records suffice to restore the pre-tx2 state *)
  (try
     backend.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write a 2;
         ctx.Ctx.write b 10;
         Pmem.set_fuse pm (Some 1);
         ignore (ctx.Ctx.read a) (* crash here *))
   with Pmem.Crash -> ());
  Pmem.crash pm;
  dump_log pm "snapshot 2 — crash during tx2";
  backend.Ctx.recover ();
  Printf.printf "  after recovery: a=%d b=%d   <- tx2 revoked by tx1's records\n\n"
    (Pmem.load_int pm a) (Pmem.load_int pm b);

  (* tx #2 again, committed this time *)
  backend.Ctx.run_tx (fun ctx ->
      ctx.Ctx.write a 2;
      ctx.Ctx.write b 10);
  dump_log pm "snapshot 3 — tx2 committed";
  Printf.printf
    "  data (media): a=%d b=%d   <- still not flushed; tx2's records are \
     the redo log\n\n"
    (Pmem.peek_media_int pm a) (Pmem.peek_media_int pm b);

  (* reclaim_log(): tx1's records are stale, only tx2's survive *)
  ignore (Spec_soft.reclaim_now runtime);
  dump_log pm "snapshot 4 — after reclaim_log()";
  Pmem.crash pm;
  backend.Ctx.recover ();
  Printf.printf "  replaying the compacted log: a=%d b=%d\n" (Pmem.load_int pm a)
    (Pmem.load_int pm b);
  assert (Pmem.load_int pm a = 2 && Pmem.load_int pm b = 10)
