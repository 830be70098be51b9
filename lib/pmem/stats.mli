(** Event and traffic counters of one simulated device.

    The evaluation figures are built from these: simulated nanoseconds
    give the speedups (Figs. 12-13), persistent-media write lines give the
    traffic figure (Fig. 14). *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable clwbs : int;
  mutable fences : int;
  mutable nt_stores : int;
  mutable pm_read_lines : int;  (** lines fetched from the media *)
  mutable pm_read_lines_seq : int;
      (** subset of [pm_read_lines] on the sequential fast path *)
  mutable pm_write_lines : int;  (** lines written to the media, all causes *)
  mutable pm_write_lines_seq : int;
      (** subset of [pm_write_lines] on the sequential fast path *)
  mutable evictions : int;  (** capacity write-backs of dirty lines *)
  mutable ns : float;  (** simulated foreground time *)
  mutable bg_ns : float;  (** simulated background-core time *)
}

val create : unit -> t
val copy : t -> t

val diff : t -> t -> t
(** [diff before after], field-wise — measure a region with {!copy} +
    [diff]. *)
