(** Deterministic crash-state exploration ("crashmc").

    The randomized crash harnesses ({!Specpmt_pmem.Pmem.crash}, the fuzz
    command, the qcheck property tests) sample crash states with a coin
    flip per dirty word — good at volume, bad at reproduction and at
    reaching the adversarial corners (exactly one line persisted, exactly
    one dropped).  This engine explores the crash space deterministically
    instead:

    - a fixed random transactional program over an array of 8-byte cells
      is derived from [seed] (first transaction adopts the cells, as in
      Section 4.3.2);
    - a {e dry run} measures the workload's crash-point space: the count
      of fuse-visible memory events ({!Specpmt_pmem.Pmem.events});
    - crash points are visited at a deterministic stride chosen so that
      the case count lands near [budget] (stride 1 = exhaustive);
    - at each point the run is repeated per {e persist choice}: an
      oracle handed to {!Specpmt_pmem.Pmem.crash_with} that decides,
      per dirty word, whether it drains to the media — all of them, none,
      or per-line / per-word adversarial subsets of the dirty set;
    - after each (crash point x choice) case the scheme's [recover] runs
      and the cells are audited against the pure reference model: the
      recovered state must equal the state after [committed] or
      [committed + 1] transactions (atomic durability).

    Every case is replayable from its one-line reproducer: same scheme,
    seed, fuse and choice encoding rebuild the identical crash state.
    Failures carry the recent {!Specpmt_obs.Trace} events.

    Explorable schemes are every recoverable registered backend
    (software and simulated hardware), plus five composite targets that
    only exist here: ["SpecSPMT-replay"], the default scheme under the
    legacy replay-every-record recovery (the differential oracle for the
    coalescing recovery path); ["SpecSPMT-MT"], the 3-thread
    runtime with per-thread logs recovered in global timestamp order
    (Section 5.2.2); ["SpecSPMT+switch"], which switches out of
    speculative logging to PMDK-style undo mid-workload (Section 4.3.1);
    ["SpecSPMT-batched"], the service layer's group-commit path —
    transactions commit tentative (poisoned-checksum, unfenced) records
    sealed in batches under a single fence, and the audit accepts any
    reference state between the last acknowledged (sealed) transaction
    and [committed + 1], since executed-but-unsealed transactions may
    legally vanish and a crash inside a seal commits a prefix of the
    batch; and ["SpecSPMT-btree"], which drives a persistent B-link tree
    ({!Specpmt_pstruct.Pbtree}, order 4) instead of the flat cell table
    with a three-phase program (bulk ascending insert, random
    insert/remove churn, ascending removal of the whole keyspace —
    provably reaching leaf splits, internal splits, borrows, merges and
    root growth/collapse, see {!btree_coverage}): ops [(c, 0)] are
    removals, the recovered tree is rediscovered from its header,
    structurally validated ({!Specpmt_pstruct.Pbtree.check} — a
    violation is an audit failure) and folded back into the cell-array
    shape for the same atomic-durability audit.  The SpecPMT variants
    run with a deliberately small log geometry (256-byte blocks,
    512-byte reclamation threshold) so block chaining and log compaction
    fall inside the explored window. *)

(** {1 Persist choices} *)

(** How the crash oracle treats the dirty words at the crash point.
    Line and word indices refer to the ascending dirty-set enumeration of
    {!Specpmt_pmem.Pmem.dirty_lines} / [dirty_words]; an out-of-range
    index degrades to [Persist_all]. *)
type choice =
  | Persist_all  (** every dirty word drains (encoding ["all"]) *)
  | Persist_none  (** nothing drains (["none"]) *)
  | Keep_line of int  (** only the [k]-th dirty line drains (["keepline:K"]) *)
  | Drop_line of int  (** all but the [k]-th dirty line (["dropline:K"]) *)
  | Keep_word of int  (** only the [k]-th dirty word (["keepword:K"]) *)
  | Drop_word of int  (** all but the [k]-th dirty word (["dropword:K"]) *)

val choice_to_string : choice -> string
(** The reproducer encoding shown above ([choice_of_string]'s inverse). *)

val choice_of_string : string -> (choice, string) result
(** Parse a reproducer encoding; [Error] carries a usage message. *)

(** Which choice families to enumerate at each crash point.  The
    all-drain case always runs first regardless — it doubles as the probe
    that sizes the dirty set for the line/word families. *)
type policy = [ `All | `None | `Lines | `Words ]

val policies_of_string : string -> (policy list, string) result
(** Comma-separated subset of ["all,none,lines,words"]. *)

(** {1 Targets} *)

val target_names : unit -> string list
(** Explorable scheme names: the recoverable software schemes, the
    composites, then the recoverable hardware schemes. *)

val recoverable_names : unit -> string list
(** The registered schemes that can recover, software then hardware, in
    registry order: the schemes a crash audit can run. *)

val btree_coverage :
  ?cells:int ->
  ?txs:int ->
  ?max_writes:int ->
  seed:int ->
  unit ->
  Specpmt_pstruct.Pbtree.stats
(** Run the ["SpecSPMT-btree"] workload uninterrupted on a fresh device
    and return the tree's structural-transition counters — the proof
    obligation that an exploration with the same parameters actually
    crosses leaf splits, internal splits, merges, borrows and root
    growth/collapse.  Defaults match a CI-sized sweep: [cells = 24],
    [txs = 12], [max_writes = 6]. *)

(** {1 Results} *)

type failure = {
  fuse : int;  (** crash point (memory events into the workload) *)
  choice : choice;
  committed : int;  (** transactions whose [run_tx] had returned *)
  error : string option;  (** exception escaping [recover], if any *)
  expected : int array;  (** reference cells after [committed] txs *)
  expected_next : int array option;  (** after [committed + 1], if any *)
  got : int array;  (** recovered cells ([[||]] when recovery raised) *)
  repro : string;  (** one-line [specpmt_run explore] reproducer *)
  trace : string list;  (** recent {!Specpmt_obs.Trace} events *)
}

type report = {
  scheme : string;
  seed : int;
  cells : int;
  txs : int;  (** random transactions (the adoption tx is extra) *)
  max_writes : int;
  budget : int;
  total_events : int;  (** crash-point space measured by the dry run *)
  stride : int;  (** distance between visited crash points *)
  points : int;  (** crash points visited *)
  cases : int;  (** (point x choice) cases executed *)
  passes : int;
  failures : failure list;  (** exploration order *)
}

val explore :
  ?cells:int ->
  ?txs:int ->
  ?max_writes:int ->
  ?budget:int ->
  ?policies:policy list ->
  ?jobs:int ->
  scheme:string ->
  seed:int ->
  unit ->
  report
(** Run the exploration.  Deterministic: identical arguments produce an
    identical report (same explored set, same verdicts), which is what
    makes a clean run a regression statement.  Raises [Invalid_argument]
    on a scheme that is unknown or cannot recover.  Defaults:
    [cells = 8], [txs = 6], [max_writes = 4], [budget = 2000],
    [policies = [`All; `None; `Lines]] (words are off by default: 8x the
    cases of lines for mostly-redundant coverage), [jobs = 1].

    Every case owns a fresh device, so the crash points are independent
    jobs of [Specpmt.Par]; their results are accounted in point order
    under one budget rule, so the report is byte-identical for any
    [jobs].  [jobs = 1] runs one point at a time and starts none once
    the budget is spent; [jobs > 1] fans the points over that many
    worker domains, which may run up to one stride-window of cases past
    the budget for the accounting to discard. *)

type replay_result =
  | Run_completed  (** the fuse outlived the workload; nothing to audit *)
  | Audit_ok of int  (** crashed and recovered cleanly ([committed]) *)
  | Audit_failed of failure

val replay :
  ?cells:int ->
  ?txs:int ->
  ?max_writes:int ->
  scheme:string ->
  seed:int ->
  fuse:int ->
  choice:choice ->
  unit ->
  replay_result
(** Re-execute one (crash point x choice) case — the reproducer path.
    The workload parameters must match the exploration that produced the
    reproducer. *)

(** {1 Rendering} *)

val pp_failure : Format.formatter -> failure -> unit
(** Human-readable failure: verdict, recovered-vs-expected cells and the
    one-line reproducer. *)

val report_to_json : report -> Specpmt_obs.Json.t
(** A {!Specpmt_obs.Sections} report whose [invariant] holds the
    workload parameters, the sweep's counts and the failures, each with
    its reproducer line and trace.  Nothing is modelled or measured; a
    caller that times the sweep adds its wall clock under [measured]. *)

(** {1 Randomized torture} *)

type torture = { crashes : int; commits : int; failure : string option }

val torture :
  make:(Specpmt_pmalloc.Heap.t -> Specpmt_txn.Ctx.backend array * (unit -> unit)) ->
  seed:int -> rounds:int -> unit -> torture
(** Crash-recovery torture of a durable hash table on a leaky device:
    [make heap] returns the scheme's cores (sharing the pool) and its
    recovery.  Each round runs random insert/remove transactions on
    random cores until a random fuse fires, recovers, and audits
    exactly: the table must equal the committed reference, or it plus
    the op in flight at the crash (which then counts as committed).
    The first failed audit ends the run, described in [failure] with
    the recent trace events.  Deterministic per [seed]. *)
