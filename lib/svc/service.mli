(** The sharded transactional KV service (tentpole components (a)–(c)).

    Keys hash to one of [shards] shards (router); each shard owns one
    per-thread {!Specpmt_backends.Spec_soft} runtime of a
    {!Specpmt_backends.Spec_mt} pool, a bounded {!Admission} queue and a
    {!Group_commit} batcher.  The store is a flat table of [keys] 8-byte
    cells in the persistent heap, partitioned by the shard hash so
    shards never contend on a cell and the per-thread logs stay
    disjoint.  It runs the per-shard core ({!Shards}) inline, on the
    calling domain.

    Durability contract: {!submit} admits (or sheds) a request;
    {!drain} executes admitted requests shard-by-shard in batches of up
    to [batch_max] transactions, sealing each batch under one flush run
    + fence, and acknowledges a request {e only after} its batch's fence
    has retired.  An acknowledged op is therefore durable across any
    later crash; an unacknowledged op is invisible to recovery unless
    the crash hit the narrow seal window of its batch ({!sealing}), in
    which case a prefix of that batch may be durable.  In the library
    and its CLIs, {!Openloop.run} is the one caller of {!submit} and
    {!drain}, under open- and closed-loop arrival processes alike. *)

open Specpmt_pmalloc
open Specpmt_backends

type op = Shards.op = Read | Write of int | Rmw of int | Scan of int
(** {!Shards.op}, re-exported. *)

type request = { client : int; key : int; op : op; enq_ns : float }

type completion = {
  c_client : int;
  c_shard : int;
  c_key : int;
  c_op : op;
  value : int;  (** value read, or value written *)
  c_enq_ns : float;
  ack_ns : float;  (** simulated time when the batch fence retired *)
}

type config = {
  shards : int;  (** 1..{!Specpmt_backends.Spec_mt.max_threads} *)
  batch_max : int;  (** transactions per group-commit batch *)
  depth : int;  (** per-shard admission (inflight) bound *)
  keys : int;  (** size of the KV table *)
}

type t

val create : ?params:Spec_soft.params -> ?shadow:bool -> Heap.t -> config -> t
(** Build the service on a formatted pool: the
    {!Specpmt_backends.Spec_mt} pool, the key table (key [k] at
    [base + 8k]), then the core ({!Shards.create}: adoption, then the
    ordered index under root slot {!Specpmt_backends.Slots.svc_index}).
    [shadow] (default [true]) mirrors each shard's tree in DRAM (see
    {!Oindex.create}); pass [false] to measure the unmirrored baseline.
    Raises {!Shards.Too_large} when the heap is too small. *)

val submit :
  t -> client:int -> key:int -> op -> Admission.verdict
(** Route to the owning shard and admit or shed.  Raises [Invalid_argument] on an
    out-of-range key or a [Scan] of length < 1. *)

val drain : ?on_ack:(completion -> unit) -> t -> completion list
(** Execute every admitted request: per shard, dequeue up to
    [batch_max], run the batch, seal, acknowledge.  [on_ack] fires per
    completion immediately after its batch's fence (crash-safe ack
    stream); the returned list is in acknowledgement order. *)

val recover : t -> unit
(** Post-crash: {!Shards.recover} (log recovery over all shards, seal
    flags cleared, the ordered index rediscovered from its root slot),
    then drop queued/executing requests: they died unacknowledged. *)

val route : shards:int -> int -> int
(** {!Shards.route}, the router hash both executors share. *)

val shard_of_key : t -> int -> int
(** [route ~shards:(config t).shards]. *)

val config : t -> config
val pm : t -> Specpmt_pmem.Pmem.t

val peek : t -> int -> int
(** Unmetered read of a key's current cell value (test/audit use). *)

val sealing : t -> int -> bool
(** Whether shard [i] was inside a batch seal — read after a simulated
    crash to widen the audit window to that batch's prefix. *)

type shard_stats = {
  s_id : int;
  s_ops : int;  (** acknowledged ops executed *)
  s_accepted : int;
  s_rejected : int;
  s_acked : int;
  s_max_inflight : int;
  s_batches : int;
  s_sealed : int;  (** records made durable by batch seals *)
  s_latency : Specpmt_obs.Hist.snapshot;  (** per-op latency, sim ns *)
}

val shard_stats : t -> int -> shard_stats

val owned_keys : t -> int -> int array
(** The keys shard [i] owns, in ascending order — the rows adoption
    iterates.  A fresh copy (test/audit use). *)

val oindex : t -> Oindex.t
(** The live per-shard ordered index (test/audit use; replaced by
    {!recover}). *)
