(** The per-shard core under both service executors.

    SpecSPMT gives every thread its own log, and the service makes each
    shard one such thread.  Everything per shard lives here, once: the
    router hash and owned-key rows, {e adoption} (Section 4.3.2), the
    ordered index and group-commit batchers, the one transaction body,
    recovery and the op tally.  The serial {!Service} adds its flat
    table, admission, completions and latency; the {!Dataplane} its
    line-aligned key regions, carved log regions, per-domain views,
    router and rings.

    Shard [s]'s {!batch_begin} / {!exec} / {!batch_end} calls must run
    on one domain at a time; different shards may run concurrently. *)

open Specpmt_pmalloc
open Specpmt_backends

type op =
  | Read  (** point read of the key's cell *)
  | Write of int  (** blind write (YCSB update/insert) *)
  | Rmw of int
      (** read-modify-write as a {e single} transaction: read the cell,
          add the delta, write it back under the same speculative
          record (YCSB-F); the result is the new value *)
  | Scan of int
      (** ordered scan of up to [len >= 1] {e populated} keys (keys
          some client write has touched) of the anchor's shard, from
          the smallest populated key [>= anchor] ({!Oindex.scan}); the
          result is the checksum [acc = (acc*31 + key + value) land
          max_int] over the window, 0 when it is empty *)

val route : shards:int -> int -> int
(** The router hash: 32-bit Fibonacci (Knuth multiplicative) hashing of
    the key, reduced mod [shards]. *)

val rows : shards:int -> keys:int -> int array array
(** Row [s] holds the keys {!route} sends to shard [s], ascending.
    Raises [Invalid_argument] unless
    [1 <= shards <= ]{!Specpmt_backends.Spec_mt.max_threads} and
    [keys >= 1]. *)

exception Too_large
(** The heap cannot hold the service: key table, log regions or an
    adoption write set.  Only construction raises it; an
    [Out_of_memory] later in a run is log exhaustion. *)

val building : (unit -> 'a) -> 'a
(** Run an executor's construction, turning [Out_of_memory] into
    {!Too_large}. *)

type t

val create :
  shadow:bool ->
  Heap.t ->
  pool:Spec_mt.t ->
  rows:int array array ->
  cells:Specpmt_pmem.Addr.t array ->
  t
(** Thread [s] of [pool] runs shard [s]; [cells.(k)] is key [k]'s
    allocated 8-byte cell.  Adoption first: one committed transaction
    per non-empty row, in shard order, writing 0 to its keys in
    ascending order, so every cell is logged before speculative logging
    may revoke an uncommitted update to it.  Then {!Oindex.create}
    ([shadow]: DRAM mirrors), whose directory goes through [heap]'s
    view.  Adoption does not populate the index; client writes do. *)

val batch_begin : t -> int -> unit
(** Open a group-commit batch on shard [s]. *)

val exec : t -> int -> key:int -> op -> int
(** [exec t s ~key op]: one transaction in shard [s]'s open batch,
    returning the value read, the value written, an [Rmw]'s new value
    or a [Scan]'s checksum.  A client write indexes its key
    ({!Oindex.ensure}) in the same transaction; reads and scans cost
    no fence.  Allocates nothing. *)

val batch_end : t -> int -> n:int -> unit
(** Seal shard [s]'s batch of [n] transactions under one fence: its
    results are durable from here on. *)

val recover : t -> unit
(** {!Specpmt_backends.Spec_mt.recover}, then every batcher's
    {!Group_commit.reset}, then {!Oindex.recover} (fresh trees, bitmap
    and mirrors, peeked through each shard's runtime view). *)

val batcher : t -> int -> Group_commit.t
val cell : t -> int -> Specpmt_pmem.Addr.t

val index : t -> Oindex.t
(** The live index; {!recover} replaces it. *)

val row : t -> int -> int array
(** Shard [s]'s row (do not mutate). *)

(** {1 Op tally} *)

type tally = {
  mutable reads : int;
  mutable writes : int;
  mutable rmws : int;
  mutable scans : int;
  mutable reads_sum : int;
      (** read, rmw and scan results summed [land max_int]: order-free,
          so executors that ack in different orders agree *)
}

val tally : unit -> tally
val count : tally -> op -> int -> unit
(** Count one acknowledged op with its result. *)
