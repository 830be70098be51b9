(** Root-slot assignments of the software backends (slots 0-7 belong to
    applications).  Thread i and SpecHPMT core i share root line 4 + i:
    {!spec_mt_head} [i] is also core i's log head (see
    [Specpmt_hwtxn.Hw_slots]), so a pool hosts software schemes or
    hardware ones, never both. *)

val app_first : int
val app_last : int
val pmdk_region : int
val kamino_region : int
val spht_head : int
val spht_marker : int
val spec_head : int
val hashlog_table : int
val hashlog_committed_ts : int
val hashlog_capacity : int

val svc_index : int
(** The service layer's ordered-index directory pointer: the root slot
    recovery reads to rediscover the per-shard [Pbtree] headers (see
    [Svc.Oindex]). *)

val spec_mt_first : int
(** First root slot of the per-thread speculative log heads. *)

val spec_mt_stride : int
(** Slot stride between consecutive heads: one cache line, so heads can
    be published from different domains without sharing a media line. *)

val spec_mt_max_threads : int
(** Threads the root area can host: one line-strided slot per thread
    from {!spec_mt_first} to the end of the root area. *)

val spec_mt_head : int -> int
(** Per-thread speculative log heads of the multi-threaded runtime
    (0..[spec_mt_max_threads - 1]), each on its own cache line. *)
