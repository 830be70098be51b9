(** Shared helpers for the test suites: pool construction, the random
    transactional-program generator, and the crash-injection harness used
    by the atomic-durability property tests. *)

open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

let mk_pool ?(seed = 7) ?(cfg = Config.small) () =
  let pm = Pmem.create ~seed cfg in
  let heap = Heap.create pm in
  (pm, heap)

(** A random transactional program over [cells] 8-byte cells: a list of
    transactions, each a list of [(cell index, new value)] writes. *)
type program = (int * int) list list

let gen_program ~cells ~txs ~max_writes rand : program =
  List.init txs (fun _ ->
      let n = 1 + Random.State.int rand max_writes in
      List.init n (fun _ ->
          (Random.State.int rand cells, 1 + Random.State.int rand 1_000_000)))

(** Pure reference: state after each whole transaction. [ref_states.(k)] is
    the array after the first [k] transactions. *)
let reference ~cells (p : program) =
  let state = Array.make cells 0 in
  let states = Array.make (List.length p + 1) [||] in
  states.(0) <- Array.copy state;
  List.iteri
    (fun i tx ->
      List.iter (fun (c, v) -> state.(c) <- v) tx;
      states.(i + 1) <- Array.copy state)
    p;
  states

(** 60 five-entry records dealt round-robin over [logs] logs (root slots
    [head_slot], [head_slot + 1], ...) that share one counter
    (timestamps 1..60 interleave across the logs), onto 48 of 64 cells,
    each cell written six or seven times; then a crash.  Returns the
    device, the cells' base and the logs' head slots. *)
let replay_image ~head_slot ~block_bytes ~logs =
  let pm = Pmem.create { Config.small with crash_word_persist_prob = 0.0 } in
  let heap = Heap.create pm in
  let arenas =
    Array.init logs (fun i ->
        Log_arena.create heap ~head_slot:(head_slot + i) ~block_bytes)
  in
  let base = Heap.alloc heap (64 * 8) in
  for r = 0 to 59 do
    let a = arenas.(r mod logs) in
    Log_arena.begin_record a;
    for i = 0 to 4 do
      let k = (r * 5) + i in
      ignore
        (Log_arena.add_entry a ~target:(base + (k * 7 mod 48 * 8))
           ~value:(k + 1))
    done;
    Log_arena.commit_record a ~timestamp:(r + 1)
  done;
  Pmem.crash pm;
  (pm, base, Array.init logs (fun i -> head_slot + i))

(** Outcome of a crash-injected run. *)
type crash_outcome = {
  committed : int;  (** transactions whose [run_tx] returned *)
  crashed : bool;
}

(** Allocate the cell array, adopt it with one initial transaction (the
    snapshot of Section 4.3.2 — every backend handles it as a plain
    transaction), then run [program] with a crash fuse of [fuse] memory
    events armed after the initialisation.  Returns the cell-array base
    address and the outcome. *)
let run_with_crash pm heap (backend : Ctx.backend) ~cells ~fuse program =
  let base = Heap.alloc heap (cells * 8) in
  backend.Ctx.run_tx (fun ctx ->
      for i = 0 to cells - 1 do
        ctx.Ctx.write (base + (i * 8)) 0
      done);
  Pmem.set_fuse pm fuse;
  let committed = ref 0 in
  let crashed =
    try
      List.iter
        (fun tx ->
          backend.Ctx.run_tx (fun ctx ->
              List.iter
                (fun (c, v) -> ctx.Ctx.write (base + (c * 8)) v)
                tx);
          incr committed)
        program;
      Pmem.set_fuse pm None;
      false
    with Pmem.Crash -> true
  in
  (base, { committed = !committed; crashed })

let read_cells pm base cells =
  Array.init cells (fun i -> Pmem.peek_volatile_int pm (base + (i * 8)))

let array_eq a b = a = b

(** Check atomic durability: the recovered state must be exactly the
    reference state after [committed] or [committed + 1] transactions (the
    +1 covers a crash after the commit point but before control returned;
    the initial adoption transaction is state 0). *)
let check_recovered ~states ~outcome recovered =
  let k = outcome.committed in
  array_eq recovered states.(k)
  || (k + 1 < Array.length states && array_eq recovered states.(k + 1))

let pp_cells ppf a =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ";") int) a

(** Per-scheme cases shared by the software and hardware suites, run
    against a fresh backend from [create] on a seed-11 pool. *)

let test_abort_rolls_back (create : Heap.t -> Ctx.backend) () =
  let pm, heap = mk_pool ~seed:11 () in
  let b = create heap in
  let base = Heap.alloc heap 64 in
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 5);
  (try
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write base 42;
         raise Ctx.Abort)
   with Ctx.Abort -> ());
  Alcotest.(check int) "rolled back" 5 (Pmem.peek_volatile_int pm base);
  (* and the rollback itself must be crash consistent *)
  if b.Ctx.supports_recovery then begin
    Pmem.crash pm;
    b.Ctx.recover ();
    Alcotest.(check int) "rolled back durably" 5
      (Pmem.peek_volatile_int pm base)
  end

let test_read_own_writes (create : Heap.t -> Ctx.backend) () =
  let _, heap = mk_pool ~seed:11 () in
  let b = create heap in
  let base = Heap.alloc heap 64 in
  b.Ctx.run_tx (fun ctx ->
      ctx.Ctx.write base 1;
      ctx.Ctx.write (base + 8) (ctx.Ctx.read base + 1);
      ctx.Ctx.write base 7);
  let v =
    b.Ctx.run_tx (fun ctx -> (ctx.Ctx.read base, ctx.Ctx.read (base + 8)))
  in
  Alcotest.(check (pair int int)) "read own writes" (7, 2) v

(* a crash skips the rollback: recovery must drop the crashed
   transaction's writes, or the next transaction reads them and its
   commit makes them durable *)
let test_crash_drops_open_writes (create : Heap.t -> Ctx.backend) () =
  let pm, heap = mk_pool ~seed:11 () in
  let b = create heap in
  let base = Heap.alloc heap 64 in
  let x = base and y = base + 8 and z = base + 16 in
  let xy () = (Pmem.peek_volatile_int pm x, Pmem.peek_volatile_int pm y) in
  b.Ctx.run_tx (fun ctx ->
      ctx.Ctx.write x 1;
      ctx.Ctx.write y 0);
  (try
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write x 2;
         ctx.Ctx.write y 5;
         raise Pmem.Crash)
   with Pmem.Crash -> ());
  Pmem.crash pm;
  b.Ctx.recover ();
  Alcotest.(check (pair int int)) "recovered" (1, 0) (xy ());
  let seen =
    b.Ctx.run_tx (fun ctx ->
        let v = ctx.Ctx.read x in
        ctx.Ctx.write z v;
        v)
  in
  Alcotest.(check int) "the next transaction reads the committed x" 1 seen;
  Alcotest.(check (pair int int)) "and its commit keeps x and y" (1, 0) (xy ())

(* double crash: crash, recover, run more transactions, crash again *)
let test_double_crash (create : Heap.t -> Ctx.backend) () =
  let pm, heap = mk_pool ~seed:23 () in
  let b = create heap in
  let base = Heap.alloc heap (4 * 8) in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 3 do
        ctx.Ctx.write (base + (i * 8)) i
      done);
  Pmem.crash pm;
  b.Ctx.recover ();
  b.Ctx.run_tx (fun ctx -> ctx.Ctx.write base 100);
  Pmem.crash pm;
  b.Ctx.recover ();
  let cells = read_cells pm base 4 in
  Alcotest.(check int) "second-generation commit" 100 cells.(0);
  Alcotest.(check int) "first-generation commit" 3 cells.(3)

(* recovery is idempotent and tolerates a crash during recovery *)
let test_recovery_idempotent (create : Heap.t -> Ctx.backend) () =
  let pm, heap = mk_pool ~seed:41 () in
  let b = create heap in
  let base = Heap.alloc heap (4 * 8) in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 3 do
        ctx.Ctx.write (base + (i * 8)) (i + 50)
      done);
  Pmem.crash pm;
  b.Ctx.recover ();
  let first = read_cells pm base 4 in
  Pmem.crash pm;
  b.Ctx.recover ();
  Alcotest.(check bool) "second recovery converges" true
    (read_cells pm base 4 = first)

(* one committed transaction, then a crash in the middle of a second *)
let interrupted_image (create : Heap.t -> Ctx.backend) =
  let pm, heap =
    mk_pool ~seed:47 ~cfg:{ Config.small with crash_word_persist_prob = 0.5 } ()
  in
  let b = create heap in
  let base = Heap.alloc heap (4 * 8) in
  b.Ctx.run_tx (fun ctx ->
      for i = 0 to 3 do
        ctx.Ctx.write (base + (i * 8)) (i + 7)
      done);
  (try
     b.Ctx.run_tx (fun ctx ->
         ctx.Ctx.write base 100;
         Pmem.set_fuse pm (Some 1);
         ctx.Ctx.write (base + 8) 200)
   with Pmem.Crash -> ());
  Pmem.set_fuse pm None;
  Pmem.crash pm;
  (pm, base, b)

(** A crash at every event of a recovery, then a second recovery:
    [image ()] rebuilds the same crashed image and returns its device,
    its recovery and a check of the recovered cells (given a label).
    Each fuse must fire, and a recovery must issue at least one event. *)
let sweep_recovery_crashes image =
  let pm, recover, _ = image () in
  let before = Pmem.events pm in
  recover ();
  let events = Pmem.events pm - before in
  if events = 0 then Alcotest.fail "recovery issued no device event";
  for fuse = 1 to events do
    let pm, recover, check = image () in
    Pmem.set_fuse pm (Some fuse);
    (match recover () with
    | () -> Alcotest.failf "fuse %d of %d never fired" fuse events
    | exception Pmem.Crash -> ());
    Pmem.set_fuse pm None;
    Pmem.crash pm;
    recover ();
    check (Printf.sprintf "crash at recovery event %d of %d" fuse events)
  done

(* the committed transaction survives, the interrupted one is revoked,
   whatever part of the first recovery persisted *)
let test_crash_during_recovery (create : Heap.t -> Ctx.backend) () =
  sweep_recovery_crashes (fun () ->
      let pm, base, b = interrupted_image create in
      ( pm,
        b.Ctx.recover,
        fun label ->
          Alcotest.(check (array int)) label [| 7; 8; 9; 10 |]
            (read_cells pm base 4) ))

(** One transaction of first writes to [cells] (write [i] stores [-1 - i]
    over [i]), crashed inside write [grow_at] — the write whose undo
    append outgrows the log's first region — at every [stride]-th event
    of that write, under each extreme crash: every dirty word persists,
    or none does.  Recovery must then leave every cell at its value
    before the transaction.  [image ()] builds a fresh device, the
    backend and the cells. *)
let sweep_growth_crashes ~grow_at ~stride image =
  let run ~before_write =
    let pm, b, cells = image () in
    (* the committed image is written raw, so that no transaction grows
       the log before the one under test *)
    Array.iteri
      (fun i a ->
        Pmem.store_int pm a i;
        Pmem.clwb pm a)
      cells;
    Pmem.sfence pm;
    let crashed =
      match
        b.Ctx.run_tx (fun ctx ->
            Array.iteri
              (fun i a ->
                before_write pm i;
                ctx.Ctx.write a (-1 - i))
              cells)
      with
      | () -> false
      | exception Pmem.Crash -> true
    in
    (pm, b, cells, crashed)
  in
  let marks = Array.make 2 0 in
  ignore
    (run ~before_write:(fun pm i ->
         if i = grow_at || i = grow_at + 1 then
           marks.(i - grow_at) <- Pmem.events pm));
  let events = marks.(1) - marks.(0) in
  (* an undo write without growth is under a dozen events *)
  if events < 100 then
    Alcotest.failf "write %d did not grow the log (%d events)" grow_at events;
  let fuse = ref 1 in
  while !fuse <= events do
    List.iter
      (fun persist ->
        let pm, b, cells, crashed =
          run ~before_write:(fun pm i ->
              if i = grow_at then Pmem.set_fuse pm (Some !fuse))
        in
        if not crashed then Alcotest.failf "fuse %d never fired" !fuse;
        Pmem.set_fuse pm None;
        Pmem.crash_with pm ~persist:(fun _ -> persist);
        b.Ctx.recover ();
        Array.iteri
          (fun i a ->
            let v = Pmem.peek_volatile_int pm a in
            if v <> i then
              Alcotest.failf
                "crash at event %d of %d of the growing write, %s dirty \
                 words persisted: cell %d reads %d after recovery, not %d"
                !fuse events
                (if persist then "all" else "no")
                i v i)
          cells)
      [ true; false ];
    fuse := !fuse + stride
  done
