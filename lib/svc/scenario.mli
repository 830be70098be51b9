(** YCSB A–F workload scenarios: mix fractions, key distributions and
    deterministic op streams.

    The six standard core workloads, expressed over {!Service.op}:

    - {b A} — update heavy: 50% read / 50% update, Zipf keys.
    - {b B} — read mostly: 95% read / 5% update, Zipf keys.
    - {b C} — read only: 100% read, Zipf keys.
    - {b D} — read latest: 95% read / 5% insert, "latest" keys (Zipf
      over recency rank, newest first).
    - {b E} — short ranges: 95% scan / 5% insert, Zipf anchor keys,
      scan length uniform in [1, scan_max].  Scans ({!Service.op.Scan})
      are served by the shard's persistent ordered index
      ({!Specpmt_pstruct.Pbtree} via [Oindex]): an ascending walk of up
      to [len] populated keys from the anchor, so inserts become
      visible to later scans exactly when their write commits.
    - {b F} — read-modify-write: 50% read / 50% {!Service.op.Rmw}
      (a single transaction per RMW), Zipf keys.

    A stream is a pure function of (spec, ops, keys, seed): one mix
    coin and one key draw per op from a seeded RNG, updates/inserts
    carrying unique values ([1_000_000 + i]) so crash audits can
    attribute cell states, inserts writing a fresh key from a growing
    frontier.  This is the service layer's one seeded drawer: the
    arrays feed {!Openloop.run} under every arrival process (open- and
    closed-loop) and {!Dataplane.run}'s router unchanged.  A plain
    read/write mix with read fraction [r] is
    [{ (spec ~theta A) with read = r; update = 1. -. r }]. *)

type mix = A | B | C | D | E | F

type dist =
  | Uniform  (** uniform over the whole keyspace *)
  | Zipf of float  (** Zipf with the given theta over key popularity *)
  | Latest of float
      (** Zipf with the given theta over {e recency} rank: rank 0 is
          the most recently inserted key (YCSB's "latest") *)

type spec = {
  sc_mix : mix;
  read : float;  (** point-read fraction *)
  update : float;  (** blind-write fraction (existing keys) *)
  insert : float;  (** fresh-key write fraction (advances the frontier) *)
  rmw : float;  (** read-modify-write fraction *)
  scan : float;  (** short-scan fraction *)
  dist : dist;
  scan_max : int;  (** scan lengths are uniform in [1, scan_max] *)
}

val spec : ?theta:float -> ?scan_max:int -> mix -> spec
(** The standard fraction vector and distribution of a mix.  [theta]
    defaults to 0.99, YCSB's Zipfian constant; [scan_max] (>= 1)
    defaults to 16. *)

val all_mixes : mix list
(** [A; B; C; D; E; F]. *)

val mix_to_string : mix -> string

val mix_of_string : string -> (mix, string) result
(** Case-insensitive ["a".."f"]. *)

val zipf_sampler : n:int -> theta:float -> Random.State.t -> unit -> int
(** Inverse-CDF Zipf over [0, n) (uniform when [theta <= 0]); the
    cumulative table is built once, each draw is O(log n). *)

val dist_to_string : dist -> string
(** ["uniform"], ["zipf:<theta>"] or ["latest:<theta>"]. *)

val op_stream :
  spec -> ops:int -> keys:int -> seed:int -> (int * Service.op) array
(** The deterministic (key, op) stream of a spec in issue order.  The
    insert frontier starts at [keys / 2] (so D's "latest" window is
    populated from the first op) and wraps onto the oldest keys once
    the keyspace is exhausted; every key is always in [0, keys). *)

val tally : (int * Service.op) array -> Shards.tally
(** Op-kind counts of a stream (updates and inserts both count as
    writes — they are indistinguishable in the stream); [reads_sum]
    stays 0. *)

val spec_to_json : spec -> Specpmt_obs.Json.t
(** Mix name, fraction vector, distribution and scan_max — the
    config-echo object the [ycsb] reports embed. *)
