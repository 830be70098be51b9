(** The common transactional interface.

    Workloads (the STAMP ports, the examples) are written against {!ctx},
    a first-class record of operations valid inside one open transaction,
    and {!backend}, the scheme-agnostic handle exposing [run_tx] and
    recovery.  Every crash-consistency scheme — software or simulated
    hardware — provides this same interface, so a workload runs unchanged
    under PMDK-style undo logging, Kamino-Tx, SPHT, SpecPMT, EDE, HOOP...

    Addresses and values are word-granular (8-byte cells), matching the
    simulator; backends account sub-word application writes by byte size
    when profiling (Table 2) but log at cell granularity. *)

open Specpmt_pmem

type ctx = {
  read : Addr.t -> int;  (** transactional load of an 8-byte cell *)
  write : Addr.t -> int -> unit;  (** transactional store of an 8-byte cell *)
  alloc : int -> Addr.t;  (** persistent allocation (not rolled back) *)
  free : Addr.t -> unit;
  on_end : (bool -> unit) -> unit;
      (** Register a volatile outcome hook on the open transaction.  It
          fires at most once, after the transaction has closed, in
          registration order with the other hooks: [true] after a
          successful commit, [false] after a rollback or when an
          exception (a device crash included) escapes the transaction
          body.  It does not fire at all when the device crashes inside
          the commit or rollback itself — the transaction may then be
          durable on media — so a hook must not be the only record of an
          outcome.  Hooks are volatile bookkeeping only (DRAM caches
          settling their updates, e.g. the {!Specpmt_pstruct} shadow
          mirror's undo log): they must not touch the device, and they
          do not survive recovery — post-crash state is rebuilt from
          media, never from hook effects.  After a commit or rollback a hook
          may open the next transaction.  Registering on a backend's
          ctx outside its transaction raises [Invalid_argument];
          non-transactional contexts ({!raw_ctx}) invoke the callback
          immediately with [true]; read-only contexts ({!peek_ctx})
          raise [Invalid_argument]. *)
}

exception Abort
(** Raised by user code to abort the open transaction; the backend rolls
    back volatile effects where its model supports it. *)

type backend = {
  name : string;
  run_tx : 'a. (ctx -> 'a) -> 'a;
      (** Run a crash-atomic transaction.  If {!Specpmt_pmem.Pmem.Crash}
          escapes, the device is mid-crash: the caller must invoke
          [Pmem.crash] and then [recover]. *)
  recover : unit -> unit;
      (** Post-crash recovery: restore every committed effect, revoke every
          uncommitted one, and reinitialise the backend's runtime state. *)
  drain : unit -> unit;
      (** Complete all background work (log replay, reclamation) — used at
          the end of a measured run so that schemes with deferred work pay
          their full traffic. *)
  log_footprint : unit -> int;
      (** Current persistent bytes devoted to log structures (for the
          memory-consumption analyses, Fig. 15). *)
  supports_recovery : bool;
      (** False for performance-upper-bound models (our Kamino-Tx port,
          mirroring the paper's methodology) that cannot actually recover. *)
}

(** Non-transactional direct access used by setup phases and verification.
    Reads and writes go straight to the device with no logging. *)
let raw_ctx (heap : Specpmt_pmalloc.Heap.t) =
  let pm = Specpmt_pmalloc.Heap.pmem heap in
  {
    read = (fun a -> Pmem.load_int pm a);
    write = (fun a v -> Pmem.store_int pm a v);
    alloc = (fun n -> Specpmt_pmalloc.Heap.alloc heap n);
    free = (fun a -> Specpmt_pmalloc.Heap.free heap a);
    (* non-transactional: every effect is already final when made, so an
       outcome hook can only ever observe a commit — fire it now (which
       is why hook users must make their update BEFORE registering) *)
    on_end = (fun f -> f true);
  }

(** Read-only, unmetered access for recovery rediscovery and post-crash
    audits: reads bypass the cache and the device clock
    ({!Specpmt_pmem.Pmem.peek_volatile_int}, so auditing a structure
    costs no simulated time and dirties no line); writes, allocation
    and free raise [Invalid_argument]. *)
let peek_ctx (pm : Pmem.t) =
  {
    read = (fun a -> Pmem.peek_volatile_int pm a);
    write = (fun _ _ -> invalid_arg "Ctx.peek_ctx: read-only");
    alloc = (fun _ -> invalid_arg "Ctx.peek_ctx: read-only");
    free = (fun _ -> invalid_arg "Ctx.peek_ctx: read-only");
    on_end = (fun _ -> invalid_arg "Ctx.peek_ctx: read-only");
  }

(** The transaction shell every logging backend runs [run_tx] through.
    It owns what the schemes share: the nested-transaction guard, the
    {!ctx.on_end} hooks, the frees deferred to commit, and the one
    dispatch on how the body ended.  A backend keeps only its reads,
    writes, [commit] and [rollback], and builds its ctx once. *)
module Shell : sig
  type t

  val create : string -> t
  (** A closed shell; the name prefixes its [Invalid_argument]s. *)

  val ctx :
    t -> heap:Specpmt_pmalloc.Heap.t -> write:(Addr.t -> int -> unit) -> ctx
  (** The backend's ctx: [write], device reads, heap allocations,
      [free] deferred to the commit, and [on_end] on the open
      transaction.  A backend that reads, allocates or frees differently
      overrides that field with [{ ... with }]. *)

  val run :
    t ->
    ctx ->
    start:(unit -> unit) ->
    commit:(Addr.t list -> unit) ->
    rollback:(unit -> unit) ->
    (ctx -> 'a) ->
    'a
  (** [run t ctx ~start ~commit ~rollback f] opens the shell (a nested
      call raises [Invalid_argument]), calls [start], then runs [f ctx]:
      - it returns: [commit] gets the deferred frees, oldest first, the
        shell closes and the hooks fire with [true];
      - it raises {!Abort}: [rollback] runs, the deferred frees are
        dropped, the shell closes, the hooks fire with [false] and
        {!Abort} is re-raised;
      - it raises anything else (a device crash): the hooks fire with
        [false] and the shell stays open until {!reset}.

      A crash inside [commit] or [rollback] fires no hook. *)

  val is_open : t -> bool

  val reset : t -> unit
  (** Close the shell and drop its hooks and deferred frees: the state a
      crashed transaction left behind.  Every [recover] calls it. *)
end = struct
  type t = {
    name : string;
    mutable opened : bool;
    mutable hooks : (bool -> unit) list; (* newest first *)
    mutable frees : Addr.t list;
        (* newest first.  An uncommitted free must never become durable,
           or recovery could revive a pointer into a reallocated block *)
  }

  let create name = { name; opened = false; hooks = []; frees = [] }
  let is_open t = t.opened

  let reset t =
    t.opened <- false;
    t.hooks <- [];
    t.frees <- []

  let ctx t ~heap ~write =
    let pm = Specpmt_pmalloc.Heap.pmem heap in
    {
      read = (fun a -> Pmem.load_int pm a);
      write;
      alloc = (fun n -> Specpmt_pmalloc.Heap.alloc heap n);
      free = (fun a -> t.frees <- a :: t.frees);
      on_end =
        (fun f ->
          if not t.opened then
            invalid_arg (t.name ^ ": on_end outside a transaction");
          t.hooks <- f :: t.hooks);
    }

  (* clear the hooks before firing them, so a hook that opens the next
     transaction registers into a fresh list *)
  let fire t ok =
    match t.hooks with
    | [] -> ()
    | fns ->
        t.hooks <- [];
        List.iter (fun f -> f ok) (List.rev fns)

  let close t ok =
    t.opened <- false;
    t.frees <- [];
    fire t ok

  let run t ctx ~start ~commit ~rollback f =
    if t.opened then invalid_arg (t.name ^ ": nested transaction");
    t.opened <- true;
    start ();
    match f ctx with
    | v ->
        commit (List.rev t.frees);
        close t true;
        v
    | exception Abort ->
        rollback ();
        close t false;
        raise Abort
    | exception e ->
        fire t false;
        raise e
end
