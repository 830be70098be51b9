open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn
open Specpmt_backends
module Hw = Specpmt_hwtxn
module Pbtree = Specpmt_pstruct.Pbtree
module Obs = Specpmt_obs
module Json = Specpmt_obs.Json
module Par = Specpmt_par.Par

(* ------------------------------------------------------------------ *)
(* Persist choices                                                     *)
(* ------------------------------------------------------------------ *)

type choice =
  | Persist_all
  | Persist_none
  | Keep_line of int
  | Drop_line of int
  | Keep_word of int
  | Drop_word of int

let choice_to_string = function
  | Persist_all -> "all"
  | Persist_none -> "none"
  | Keep_line k -> Printf.sprintf "keepline:%d" k
  | Drop_line k -> Printf.sprintf "dropline:%d" k
  | Keep_word k -> Printf.sprintf "keepword:%d" k
  | Drop_word k -> Printf.sprintf "dropword:%d" k

let choice_of_string s =
  let indexed prefix mk =
    let p = String.length prefix in
    match int_of_string_opt (String.sub s p (String.length s - p)) with
    | Some k when k >= 0 -> Ok (mk k)
    | _ -> Error (Printf.sprintf "bad index in crash choice %S" s)
  in
  let has p =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  match s with
  | "all" -> Ok Persist_all
  | "none" -> Ok Persist_none
  | _ when has "keepline:" -> indexed "keepline:" (fun k -> Keep_line k)
  | _ when has "dropline:" -> indexed "dropline:" (fun k -> Drop_line k)
  | _ when has "keepword:" -> indexed "keepword:" (fun k -> Keep_word k)
  | _ when has "dropword:" -> indexed "dropword:" (fun k -> Drop_word k)
  | _ ->
      Error
        (Printf.sprintf
           "unknown crash choice %S \
            (all|none|keepline:K|dropline:K|keepword:K|dropword:K)"
           s)

type policy = [ `All | `None | `Lines | `Words ]

let default_policies : policy list = [ `All; `None; `Lines ]

let policies_of_string s =
  let parse = function
    | "all" -> Ok `All
    | "none" -> Ok `None
    | "lines" -> Ok `Lines
    | "words" -> Ok `Words
    | p -> Error (Printf.sprintf "unknown policy %S (all|none|lines|words)" p)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match parse p with
        | Ok pol -> collect (pol :: acc) rest
        | Error _ as e -> e)
  in
  match
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  with
  | [] -> Error "empty policy list"
  | ps -> collect [] ps

(* The oracle handed to [Pmem.crash_with].  Built while the dirty set is
   still inspectable (before the crash is taken); an out-of-range index
   has no line/word to name and degrades to all-drain. *)
let persist_pred pm = function
  | Persist_all -> fun _ -> true
  | Persist_none -> fun _ -> false
  | Keep_line k -> (
      match List.nth_opt (Pmem.dirty_lines pm) k with
      | Some li -> fun a -> Addr.line_index a = li
      | None -> fun _ -> true)
  | Drop_line k -> (
      match List.nth_opt (Pmem.dirty_lines pm) k with
      | Some li -> fun a -> Addr.line_index a <> li
      | None -> fun _ -> true)
  | Keep_word k -> (
      match List.nth_opt (Pmem.dirty_words pm) k with
      | Some w -> fun a -> a = w
      | None -> fun _ -> true)
  | Drop_word k -> (
      match List.nth_opt (Pmem.dirty_words pm) k with
      | Some w -> fun a -> a <> w
      | None -> fun _ -> true)

(* ------------------------------------------------------------------ *)
(* Targets                                                             *)
(* ------------------------------------------------------------------ *)

type instance = {
  run_tx : int -> (Ctx.ctx -> unit) -> unit;
      (* the argument is the transaction's index in the workload — the
         multi-thread target uses it to spread transactions round-robin
         over its threads *)
  recover : unit -> unit;
  acked : (unit -> int) option;
      (* group-commit targets: transactions whose durability the target
         has acknowledged (their batch's seal fence retired).  A crash
         may then legally recover to any state between [acked] and
         [committed + 1] — unsealed transactions returned from [run_tx]
         without being durable yet.  [None] for per-transaction-fence
         targets, where [committed] is the floor. *)
  exec : (Ctx.ctx -> int -> int -> unit) option;
      (* how one program op [(c, v)] executes inside its transaction.
         [None] = the flat cell table ([ctx.write (base + 8c) v]);
         structure targets substitute their own transition (the btree
         target maps [(c, 0)] to a removal, anything else to an
         insert).  The reference model is shared either way: cell [c]
         holds [v] after the op, with 0 meaning absent. *)
  read_state : (unit -> int array) option;
      (* how the recovered state is read back after [recover].  [None]
         = peek the flat cell table; structure targets rediscover their
         structure from persistent roots, validate its invariants (any
         exception is recorded as an audit failure) and fold it into
         the reference's cell-array shape. *)
}

type target = {
  t_name : string;
  make : Heap.t -> cells:int -> total_txs:int -> instance;
  t_program :
    (cells:int -> txs:int -> max_writes:int -> seed:int ->
     (int * int) list list)
    option;
      (* workload generator override; [None] = [gen_program] (adoption
         tx + random writes).  Structure targets substitute a program
         whose op mix provably exercises their structural transitions. *)
}

let of_backend (b : Ctx.backend) =
  {
    run_tx = (fun _ f -> b.Ctx.run_tx f);
    recover = b.Ctx.recover;
    acked = None;
    exec = None;
    read_state = None;
  }

(* Small log geometry for the SpecPMT variants: with the default 4 KiB
   blocks and 1 MiB threshold, a workload small enough to explore
   exhaustively would never chain a block or compact — precisely the
   code recovery depends on.  256 bytes is the arena's minimum block. *)
let mc_params ~data_persist =
  {
    Spec_soft.data_persist;
    block_bytes = 256;
    reclaim_bytes = 512;
    recovery = Spec_soft.Coalesce;
  }

let sw_target k =
  (* SpecPMT variants get the small exploration geometry; the registry
     knows which ones those are *)
  let spec_params =
    Option.map
      (fun (p : Spec_soft.params) ->
        mc_params ~data_persist:p.Spec_soft.data_persist)
      (Registry.spec_params k)
  in
  {
    t_name = Registry.name k;
    make =
      (fun heap ~cells:_ ~total_txs:_ ->
        of_backend (Registry.create ?spec_params heap k));
    t_program = None;
  }

(* Differential oracle: the same workload audited under the legacy
   replay-every-record recovery.  A divergence between this target and
   the default SpecSPMT one localises a bug to the coalescing path. *)
let replay_target =
  {
    t_name = "SpecSPMT-replay";
    t_program = None;
    make =
      (fun heap ~cells:_ ~total_txs:_ ->
        of_backend
          (fst
             (Spec_soft.create heap
                {
                  (mc_params ~data_persist:false) with
                  Spec_soft.recovery = Spec_soft.Replay;
                })));
  }

let mt_target =
  {
    t_name = "SpecSPMT-MT";
    t_program = None;
    make =
      (fun heap ~cells:_ ~total_txs:_ ->
        let mt =
          Spec_mt.create ~params:(mc_params ~data_persist:false) heap ~threads:3
        in
        {
          run_tx =
            (fun i f -> (Spec_mt.thread mt (i mod Spec_mt.threads mt)).Ctx.run_tx f);
          recover = (fun () -> Spec_mt.recover mt);
          acked = None;
          exec = None;
          read_state = None;
        });
  }

(* Group commit (the service layer's batched path): transactions commit
   tentative records (poisoned checksum, no fence) and every
   [batch_max]-th transaction seals the batch under one flush run + one
   fence.  The adoption transaction (index 0) seals alone — until a cell
   has a {e sealed} record, a torn in-place store to it is irrevocable —
   exactly as the service layer adopts its key table outside any batch.
   The [acked] hook tells the auditor the durable floor: a crash may
   recover to any state from the last seal up to [committed + 1]
   (unsealed transactions executed but were never acknowledged). *)
let batched_target =
  let batch_max = 3 in
  {
    t_name = "SpecSPMT-batched";
    t_program = None;
    make =
      (fun heap ~cells:_ ~total_txs ->
        let b, rt = Spec_soft.create heap (mc_params ~data_persist:false) in
        let acked = ref 0 and open_txs = ref 0 in
        {
          run_tx =
            (fun i f ->
              if not (Spec_soft.in_batch rt) then Spec_soft.batch_begin rt;
              b.Ctx.run_tx f;
              incr open_txs;
              if i = 0 || !open_txs >= batch_max || i = total_txs - 1
              then begin
                ignore (Spec_soft.batch_end rt);
                (* the seal fence retired: everything in the batch is
                   durable and can be acknowledged *)
                acked := !acked + !open_txs;
                open_txs := 0
              end);
          recover =
            (fun () ->
              b.Ctx.recover ();
              open_txs := 0);
          acked = Some (fun () -> !acked);
          exec = None;
          read_state = None;
        });
  }

(* Mechanism switch-out mid-workload (Section 4.3.1): the first half of
   the transactions run under speculative logging, then [switch_out]
   persists the covered data and invalidates the log, and the rest run
   under PMDK-style undo on the same pool.  Recovery must work at every
   crash point of all three phases. *)
let switch_target =
  {
    t_name = "SpecSPMT+switch";
    t_program = None;
    make =
      (fun heap ~cells:_ ~total_txs ->
        let spec_b, spec_rt =
          Spec_soft.create heap (mc_params ~data_persist:false)
        in
        let pmdk = Registry.create heap Registry.Pmdk in
        let switch_at = max 1 (total_txs / 2) in
        let switched = ref false in
        {
          run_tx =
            (fun i f ->
              if i < switch_at then spec_b.Ctx.run_tx f
              else begin
                if not !switched then begin
                  switched := true;
                  ignore (Spec_soft.switch_out spec_rt)
                end;
                pmdk.Ctx.run_tx f
              end);
          recover =
            (fun () ->
              (* the speculative replay is a no-op once the log has been
                 invalidated; before (or during) the switch the undo log
                 is empty and PMDK's rollback is the no-op instead *)
              spec_b.Ctx.recover ();
              pmdk.Ctx.recover ());
          acked = None;
          exec = None;
          read_state = None;
        });
  }

(* Composite structure target: the workload drives a persistent B-link
   tree (Pbtree, order 4 — small enough that a couple dozen keys force
   every structural transition) instead of the flat cell table.  An op
   [(c, 0)] is a removal, anything else an insert/overwrite, so the
   shared array reference model still applies with 0 meaning absent.
   The recovered state is read back by rediscovering the tree from its
   header through an unmetered peek context, structurally validating it
   ([Pbtree.check] — a violation is an audit failure, not a harness
   crash) and folding the live bindings into the reference's cell-array
   shape.  Every crash point therefore audits BOTH atomic durability of
   the mapping and structural integrity of the recovered tree: splits,
   merges and root moves must be transactionally invisible. *)
let btree_order = 4

(* Three phases, [1 + txs] transactions like [gen_program]'s shape:
   tx 0 bulk-inserts every cell ascending (the adoption analogue —
   it alone drives leaf splits, internal splits and root growth at
   order 4); then [ceil(2/3 txs)] random mixed transactions (~1/4
   removals) churn the interior; then the remaining transactions remove
   ascending slices covering the whole keyspace, forcing borrows,
   merges and root collapse back to a single leaf. *)
let btree_program ~cells ~txs ~max_writes ~seed =
  let rand = Random.State.make [| 0xB7EE; seed |] in
  let grow_txs = max 1 (((2 * txs) + 2) / 3) in
  let shrink_txs = txs - grow_txs in
  let bulk = List.init cells (fun c -> (c, 1 + (c * 7))) in
  let churn =
    List.init (grow_txs - 1) (fun _ ->
        let n = 1 + Random.State.int rand max_writes in
        List.init n (fun _ ->
            let c = Random.State.int rand cells in
            if Random.State.int rand 4 = 0 then (c, 0)
            else (c, 1 + Random.State.int rand 1_000_000)))
  in
  let shrink =
    if shrink_txs < 1 then []
    else
      let per = (cells + shrink_txs - 1) / shrink_txs in
      List.init shrink_txs (fun i ->
          let lo = i * per and hi = min cells ((i + 1) * per) in
          if lo >= hi then [] else List.init (hi - lo) (fun j -> (lo + j, 0)))
  in
  (bulk :: churn) @ shrink

let btree_target =
  {
    t_name = "SpecSPMT-btree";
    t_program = Some btree_program;
    make =
      (fun heap ~cells ~total_txs:_ ->
        let b, _rt = Spec_soft.create heap (mc_params ~data_persist:false) in
        (* the tree is created before the fuse arms (make runs pre-
           workload), so its header cell is durably reachable at every
           explored crash point *)
        let tree =
          b.Ctx.run_tx (fun ctx -> Pbtree.create ~order:btree_order ctx ())
        in
        let pm = Heap.pmem heap in
        (* mirror the live handle so every explored crash point also
           exercises the shadow's transactional staging: deltas commit
           on the outcome hook, and a Pmem.Crash escaping the body drops
           them (one inside commit fires no hook).  The mirror is never
           trusted after the crash — the recovery audit below rebuilds
           a fresh one from media. *)
        Pbtree.attach_shadow (Ctx.peek_ctx pm) tree;
        {
          run_tx = (fun _ f -> b.Ctx.run_tx f);
          recover = b.Ctx.recover;
          acked = None;
          exec =
            Some
              (fun ctx c v ->
                if v = 0 then ignore (Pbtree.remove ctx tree c)
                else Pbtree.insert ctx tree c v);
          read_state =
            Some
              (fun () ->
                let ctx = Ctx.peek_ctx pm in
                let t = Pbtree.of_header ctx (Pbtree.header tree) in
                Pbtree.check ctx t;
                (* shadow-coherence audit: rebuild a mirror from the
                   recovered media, then field-compare it against a
                   direct media walk ([verify_shadow] raises on any
                   divergence — same failure class as [check]) and
                   serve the state readback through it, so the audited
                   bindings are the mirror's, not the device's *)
                Pbtree.attach_shadow ctx t;
                Pbtree.verify_shadow ctx t;
                let got = Array.make cells 0 in
                Pbtree.iter ctx t (fun k v -> got.(k) <- v);
                got);
        });
  }

(* Structural-coverage probe for the btree program: run it uninterrupted
   on a fresh device and return the tree's transition counters, so a
   test can assert the explored workload actually reaches leaf splits,
   internal splits, merges and root growth/collapse. *)
let btree_coverage ?(cells = 24) ?(txs = 12) ?(max_writes = 6) ~seed () =
  let heap = Heap.create (Pmem.create ~seed Config.small) in
  let b, _rt = Spec_soft.create heap (mc_params ~data_persist:false) in
  let tree =
    b.Ctx.run_tx (fun ctx -> Pbtree.create ~order:btree_order ctx ())
  in
  List.iter
    (fun tx ->
      b.Ctx.run_tx (fun ctx ->
          List.iter
            (fun (c, v) ->
              if v = 0 then ignore (Pbtree.remove ctx tree c)
              else Pbtree.insert ctx tree c v)
            tx))
    (btree_program ~cells ~txs ~max_writes ~seed);
  Pbtree.stats tree

let hw_target k =
  {
    t_name = Hw.Hw_registry.name k;
    make =
      (fun heap ~cells:_ ~total_txs:_ ->
        of_backend (Hw.Hw_registry.create heap k));
    t_program = None;
  }

(* Recoverability is a property of the built backend, so probe each kind
   once on a scratch pool rather than duplicating the registry's table. *)
let recoverable_sw =
  lazy
    (List.filter
       (fun k ->
         let heap = Heap.create (Pmem.create Config.small) in
         (Registry.create heap k).Ctx.supports_recovery)
       Registry.all)

let recoverable_hw =
  lazy
    (List.filter
       (fun k ->
         let heap = Heap.create (Pmem.create Config.small) in
         (Hw.Hw_registry.create heap k).Ctx.supports_recovery)
       Hw.Hw_registry.all)

let targets () =
  List.map sw_target (Lazy.force recoverable_sw)
  @ [ replay_target; mt_target; switch_target; batched_target;
      btree_target ]
  @ List.map hw_target (Lazy.force recoverable_hw)

let target_names () = List.map (fun t -> t.t_name) (targets ())

let recoverable_names () =
  List.map Registry.name (Lazy.force recoverable_sw)
  @ List.map Hw.Hw_registry.name (Lazy.force recoverable_hw)

let target_of_name name =
  List.find_opt
    (fun t -> String.lowercase_ascii t.t_name = String.lowercase_ascii name)
    (targets ())

(* ------------------------------------------------------------------ *)
(* Workload and reference model                                        *)
(* ------------------------------------------------------------------ *)

(* Transaction 0 adopts every cell (the snapshot of Section 4.3.2); the
   rest are random writes.  Everything derives from [seed]. *)
let gen_program ~cells ~txs ~max_writes ~seed =
  let rand = Random.State.make [| 0xC4A5; seed |] in
  List.init cells (fun i -> (i, 0))
  :: List.init txs (fun _ ->
         let n = 1 + Random.State.int rand max_writes in
         List.init n (fun _ ->
             (Random.State.int rand cells, 1 + Random.State.int rand 1_000_000)))

(* [states.(k)] = the cell array after the first [k] transactions. *)
let reference ~cells program =
  let state = Array.make cells 0 in
  let states = Array.make (List.length program + 1) [||] in
  states.(0) <- Array.copy state;
  List.iteri
    (fun i tx ->
      List.iter (fun (c, v) -> state.(c) <- v) tx;
      states.(i + 1) <- Array.copy state)
    program;
  states

let build tgt ~seed ~cells ~total_txs =
  let pm = Pmem.create ~seed Config.small in
  let heap = Heap.create pm in
  let inst = tgt.make heap ~cells ~total_txs in
  let base = Heap.alloc heap (cells * 8) in
  (pm, inst, base)

let run_workload pm inst ~base program ~fuse =
  Pmem.set_fuse pm fuse;
  let exec =
    match inst.exec with
    | Some f -> f
    | None -> fun ctx c v -> ctx.Ctx.write (base + (c * 8)) v
  in
  let committed = ref 0 in
  let crashed =
    try
      List.iteri
        (fun i tx ->
          inst.run_tx i (fun ctx ->
              List.iter (fun (c, v) -> exec ctx c v) tx);
          incr committed)
        program;
      Pmem.set_fuse pm None;
      false
    with Pmem.Crash -> true
  in
  (!committed, crashed)

(* Recovered-state readback: the flat table peek, or the target's own
   structural readback ([read_state]) when it has one. *)
let read_back pm inst ~base ~cells =
  match inst.read_state with
  | Some f -> f ()
  | None ->
      Array.init cells (fun i -> Pmem.peek_volatile_int pm (base + (i * 8)))

(* Atomic durability: the recovered cells must match the reference after
   [committed] or [committed + 1] transactions (the +1 covers a crash
   after the commit point but before control returned).  A group-commit
   target supplies [floor], the count of {e acknowledged} transactions:
   executed-but-unsealed transactions may legally vanish at a crash, and
   a crash inside the seal durably commits any prefix of the batch, so
   the recovered state may match any reference state from [floor] to
   [committed + 1] — never an out-of-order or torn one. *)
let audit ?floor states committed got =
  let hi = min (committed + 1) (Array.length states - 1) in
  let lo =
    match floor with None -> committed | Some f -> min f committed
  in
  let rec check j = j <= hi && (got = states.(j) || check (j + 1)) in
  check lo

(* ------------------------------------------------------------------ *)
(* One case                                                            *)
(* ------------------------------------------------------------------ *)

type case = {
  c_committed : int;
  c_dirty_lines : int;
  c_dirty_words : int;
  c_ok : bool;
  c_error : string option;
  c_got : int array;
}

(* Execute the workload on a fresh device with the fuse at [fuse], take
   the crash under [choice], recover, audit.  [None] when the fuse
   outlived the workload. *)
let run_case tgt ~seed ~cells ~program ~states ~fuse ~choice =
  Obs.Trace.clear ();
  let pm, inst, base =
    build tgt ~seed ~cells ~total_txs:(List.length program)
  in
  let committed, crashed = run_workload pm inst ~base program ~fuse:(Some fuse) in
  if not crashed then None
  else begin
    let c_dirty_lines = List.length (Pmem.dirty_lines pm) in
    let c_dirty_words = List.length (Pmem.dirty_words pm) in
    let persist = persist_pred pm choice in
    Pmem.crash_with pm ~persist;
    (* structural readback can itself detect corruption (a btree
       [check] violation): fold it into the same failure shape as a
       recovery exception *)
    match
      inst.recover ();
      read_back pm inst ~base ~cells
    with
    | got ->
        (* the volatile ack counter survives the simulated crash — read
           it after recovery, exactly like a client that kept its own
           record of which requests were acknowledged *)
        let floor = Option.map (fun f -> f ()) inst.acked in
        Some
          {
            c_committed = committed;
            c_dirty_lines;
            c_dirty_words;
            c_ok = audit ?floor states committed got;
            c_error = None;
            c_got = got;
          }
    | exception e ->
        Some
          {
            c_committed = committed;
            c_dirty_lines;
            c_dirty_words;
            c_ok = false;
            c_error = Some (Printexc.to_string e);
            c_got = [||];
          }
  end

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)
(* ------------------------------------------------------------------ *)

type failure = {
  fuse : int;
  choice : choice;
  committed : int;
  error : string option;
  expected : int array;
  expected_next : int array option;
  got : int array;
  repro : string;
  trace : string list;
}

type report = {
  scheme : string;
  seed : int;
  cells : int;
  txs : int;
  max_writes : int;
  budget : int;
  total_events : int;
  stride : int;
  points : int;
  cases : int;
  passes : int;
  failures : failure list;
}

(* Adversarial subsets are capped per point: the first lines/words of
   the dirty set carry the structures under test (log metadata persists
   before data in every scheme here), and the cap keeps the case count
   proportional to the visited points rather than to the dirty-set
   size. *)
let cap_lines = 3
let cap_words = 4

let choices_for ~(policies : policy list) ~ndl ~ndw =
  List.concat_map
    (function
      | `All -> [ Persist_all ]
      | `None -> [ Persist_none ]
      | `Lines ->
          List.concat
            (List.init (min ndl cap_lines) (fun k ->
                 [ Drop_line k; Keep_line k ]))
      | `Words ->
          List.concat
            (List.init (min ndw cap_words) (fun k ->
                 [ Drop_word k; Keep_word k ])))
    policies

(* Expected cases per crash point, for the stride choice only. *)
let est_cases (policies : policy list) =
  1
  + (if List.mem `None policies then 1 else 0)
  + (if List.mem `Lines policies then 2 * cap_lines - 2 else 0)
  + if List.mem `Words policies then 2 * cap_words - 2 else 0

let get_target scheme =
  match target_of_name scheme with
  | Some t -> t
  | None ->
      Fmt.invalid_arg "crashmc: unknown or non-recoverable scheme %S (try: %s)"
        scheme
        (String.concat ", " (target_names ()))

let mk_failure ~scheme ~seed ~cells ~txs ~max_writes ~states ~fuse ~choice
    ~trace (r : case) =
  {
    fuse;
    choice;
    committed = r.c_committed;
    error = r.c_error;
    expected = states.(r.c_committed);
    expected_next =
      (if r.c_committed + 1 < Array.length states then
         Some states.(r.c_committed + 1)
       else None);
    got = r.c_got;
    repro =
      Printf.sprintf
        "specpmt_run explore --scheme '%s' --seed %d --cells %d --txs %d \
         --max-writes %d --fuse %d --choice %s"
        scheme seed cells txs max_writes fuse (choice_to_string choice);
    trace;
  }

(* Run one case and, when it fails, harvest its formatted trace right
   away: the ring is domain-local and the next case on this domain
   clears it, so the capture must happen on the domain that executed the
   case, before it runs anything else.  Passing cases skip the
   formatting — the hot path of a clean sweep. *)
let run_case_traced tgt ~seed ~cells ~program ~states ~fuse ~choice =
  let r = run_case tgt ~seed ~cells ~program ~states ~fuse ~choice in
  let trace =
    match r with
    | Some c when not c.c_ok ->
        List.map
          (fun e -> Format.asprintf "%a" Obs.Trace.pp_event e)
          (Obs.Trace.recent ())
    | _ -> []
  in
  (r, trace)

let explore ?(cells = 8) ?(txs = 6) ?(max_writes = 4) ?(budget = 2000)
    ?(policies = default_policies) ?(jobs = 1) ~scheme ~seed () =
  let tgt = get_target scheme in
  (* [get_target] forced the recoverability probes; the program, states
     and target closure below are the read-only plan every worker domain
     shares. *)
  Obs.Trace.set_capacity 64;
  let gen = Option.value tgt.t_program ~default:gen_program in
  let program = gen ~cells ~txs ~max_writes ~seed in
  let states = reference ~cells program in
  (* dry run: measure the crash-point space, check the workload itself *)
  let total_events =
    let pm, inst, base =
      build tgt ~seed ~cells ~total_txs:(List.length program)
    in
    let e0 = Pmem.events pm in
    let committed, crashed = run_workload pm inst ~base program ~fuse:None in
    if crashed || committed <> List.length program then
      Fmt.invalid_arg "crashmc: uninterrupted %s workload did not complete"
        scheme;
    let final = read_back pm inst ~base ~cells in
    if final <> states.(committed) then
      Fmt.invalid_arg "crashmc: uninterrupted %s workload diverges from the \
                       reference model"
        scheme;
    Pmem.events pm - e0
  in
  let stride = max 1 (total_events * est_cases policies / max 1 budget) in
  let points = ref 0 and cases = ref 0 and passes = ref 0 in
  let failures = ref [] in
  let record ~fuse choice (r : case) trace =
    incr cases;
    if r.c_ok then incr passes
    else
      failures :=
        mk_failure ~scheme ~seed ~cells ~txs ~max_writes ~states ~fuse ~choice
          ~trace r
        :: !failures
  in
  let npoints =
    if total_events < 1 then 0 else 1 + ((total_events - 1) / stride)
  in
  (* every crash point is an independent job (each case builds its own
     device): its all-drain case first, which both audits the fully
     persisted crash state and sizes the dirty set for the adversarial
     families, then those families *)
  let run_point i =
    let fuse = 1 + (i * stride) in
    match
      run_case_traced tgt ~seed ~cells ~program ~states ~fuse
        ~choice:Persist_all
    with
    | None, _ -> []
    | Some probe, ptrace ->
        let rest =
          choices_for ~policies ~ndl:probe.c_dirty_lines
            ~ndw:probe.c_dirty_words
          |> List.filter (fun c -> c <> Persist_all)
        in
        (Persist_all, probe, ptrace)
        :: List.filter_map
             (fun choice ->
               match
                 run_case_traced tgt ~seed ~cells ~program ~states ~fuse
                   ~choice
               with
               | None, _ -> None
               | Some r, tr -> Some (choice, r, tr))
             rest
  in
  (* The points run through the domain pool, and their index-ordered
     results are accounted in order: a point is entered only while under
     budget, its all-drain case is always recorded, every later choice
     only while under budget.  One job runs one point per round, so no
     point starts once the budget is spent; more jobs fan the remaining
     points out at once, and up to one stride-window of cases past the
     budget may run and be discarded — bounded waste, traded for not
     sharing a counter.  The report is the same for any [jobs]. *)
  let next = ref 0 in
  while !next < npoints && !cases < budget do
    let first = !next in
    let n = if jobs <= 1 then 1 else npoints - first in
    Array.iteri
      (fun k results ->
        if !cases < budget then begin
          incr points;
          List.iteri
            (fun j (choice, r, trace) ->
              if j = 0 || !cases < budget then
                record ~fuse:(1 + ((first + k) * stride)) choice r trace)
            results
        end)
      (Par.run ~jobs ~n (fun k -> run_point (first + k)));
    next := first + n
  done;
  {
    scheme = tgt.t_name;
    seed;
    cells;
    txs;
    max_writes;
    budget;
    total_events;
    stride;
    points = !points;
    cases = !cases;
    passes = !passes;
    failures = List.rev !failures;
  }

type replay_result =
  | Run_completed
  | Audit_ok of int
  | Audit_failed of failure

let replay ?(cells = 8) ?(txs = 6) ?(max_writes = 4) ~scheme ~seed ~fuse
    ~choice () =
  let tgt = get_target scheme in
  Obs.Trace.set_capacity 64;
  let gen = Option.value tgt.t_program ~default:gen_program in
  let program = gen ~cells ~txs ~max_writes ~seed in
  let states = reference ~cells program in
  match run_case_traced tgt ~seed ~cells ~program ~states ~fuse ~choice with
  | None, _ -> Run_completed
  | Some r, _ when r.c_ok -> Audit_ok r.c_committed
  | Some r, trace ->
      Audit_failed
        (mk_failure ~scheme:tgt.t_name ~seed ~cells ~txs ~max_writes ~states
           ~fuse ~choice ~trace r)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_cells ppf a = Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ";") int) a

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>fuse %d, choice %s: %d committed;@ " f.fuse
    (choice_to_string f.choice) f.committed;
  (match f.error with
  | Some e -> Fmt.pf ppf "recovery raised %s@ " e
  | None ->
      Fmt.pf ppf "recovered %a@ expected  %a" pp_cells f.got pp_cells
        f.expected;
      Option.iter (fun n -> Fmt.pf ppf "@ or        %a" pp_cells n)
        f.expected_next);
  Fmt.pf ppf "@ repro: %s@]" f.repro

let cells_json a = Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))

let failure_to_json f =
  Json.Obj
    [
      ("fuse", Json.Int f.fuse);
      ("choice", Json.Str (choice_to_string f.choice));
      ("committed", Json.Int f.committed);
      ( "error",
        match f.error with None -> Json.Null | Some e -> Json.Str e );
      ("expected", cells_json f.expected);
      ( "expected_next",
        match f.expected_next with None -> Json.Null | Some a -> cells_json a
      );
      ("got", cells_json f.got);
      ("repro", Json.Str f.repro);
      ("trace", Json.List (List.map (fun s -> Json.Str s) f.trace));
    ]

(* the verdict set is all counts; the harness's wall clock is the
   CLI's to add under [measured] *)
let report_to_json r =
  Obs.Sections.v
    ~invariant:
      [
        ("scheme", Json.Str r.scheme);
        ("seed", Json.Int r.seed);
        ("cells", Json.Int r.cells);
        ("txs", Json.Int r.txs);
        ("max_writes", Json.Int r.max_writes);
        ("budget", Json.Int r.budget);
        ("total_events", Json.Int r.total_events);
        ("stride", Json.Int r.stride);
        ("points", Json.Int r.points);
        ("cases", Json.Int r.cases);
        ("passes", Json.Int r.passes);
        ("failures", Json.List (List.map failure_to_json r.failures));
      ]
    ~modelled:[] ~measured:[]

(* ------------------------------------------------------------------ *)
(* Randomized torture                                                  *)
(* ------------------------------------------------------------------ *)

module Keys = Map.Make (Int)

type torture = { crashes : int; commits : int; failure : string option }

let torture ~make ~seed ~rounds () =
  let module H = Specpmt_pstruct.Phashtbl in
  Obs.Trace.set_capacity 256;
  let pm =
    Pmem.create ~seed { Config.default with crash_word_persist_prob = 0.7 }
  in
  let heap = Heap.create pm in
  let cores, recover = make heap in
  let store = cores.(0).Ctx.run_tx (fun ctx -> H.create ctx 64) in
  let rand = Random.State.make [| seed; 0xF0 |] in
  let apply m (del, k, v) = if del then Keys.remove k m else Keys.add k v m in
  let committed = ref Keys.empty and commits = ref 0 and crashes = ref 0 in
  (* every device operation is inside a transaction, so the fuse always
     fires inside one: the op in flight *)
  let inflight = ref (false, 0, 0) and failure = ref None and round = ref 0 in
  while !failure = None && !round < rounds do
    incr round;
    Pmem.set_fuse pm (Some (100 + Random.State.int rand 3000));
    (try
       while true do
         let n = Array.length cores in
         let core = if n = 1 then 0 else Random.State.int rand n in
         let k = 1 + Random.State.int rand 200 in
         let v = Random.State.int rand 1_000_000 in
         let del = Random.State.int rand 8 = 0 in
         inflight := (del, k, v);
         cores.(core).Ctx.run_tx (fun ctx ->
             if del then ignore (H.remove ctx store k)
             else ignore (H.replace ctx store k v));
         committed := apply !committed !inflight;
         incr commits
       done
     with Pmem.Crash ->
       incr crashes;
       Pmem.crash pm;
       recover ());
    let got = ref Keys.empty in
    H.iter (Ctx.raw_ctx heap) store (fun k v -> got := Keys.add k v !got);
    let landed = apply !committed !inflight in
    if Keys.equal Int.equal !got landed then committed := landed
    else if not (Keys.equal Int.equal !got !committed) then
      failure :=
        Some
          (Format.asprintf
             "round %d: the recovered table (%d keys) is neither the \
              committed one (%d keys) nor it plus the op in flight@.last \
              traced events:@.%a"
             !round (Keys.cardinal !got) (Keys.cardinal !committed)
             Obs.Trace.dump ())
  done;
  { crashes = !crashes; commits = !commits; failure = !failure }
