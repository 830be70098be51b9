(** Event and traffic counters for one simulated device.

    The evaluation figures are built from these counters: simulated
    nanoseconds give the speedup figures (Figs. 12 and 13), persistent-media
    write lines give the write-traffic figure (Fig. 14). *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable clwbs : int;
  mutable fences : int;
  mutable nt_stores : int;
  mutable pm_read_lines : int;  (** lines fetched from the media *)
  mutable pm_read_lines_seq : int;
      (** subset of [pm_read_lines] that hit the sequential fast path *)
  mutable pm_write_lines : int;  (** lines written to the media, all causes *)
  mutable pm_write_lines_seq : int;
      (** subset of [pm_write_lines] that hit the sequential fast path *)
  mutable evictions : int;  (** capacity write-backs of dirty lines *)
  mutable ns : float;  (** simulated foreground time *)
  mutable bg_ns : float;  (** simulated background-core time *)
}

let create () =
  {
    loads = 0;
    stores = 0;
    clwbs = 0;
    fences = 0;
    nt_stores = 0;
    pm_read_lines = 0;
    pm_read_lines_seq = 0;
    pm_write_lines = 0;
    pm_write_lines_seq = 0;
    evictions = 0;
    ns = 0.0;
    bg_ns = 0.0;
  }

let copy t = { t with loads = t.loads }

(** [diff a b] is the counters of [b] minus those of [a] (use with a
    snapshot taken by {!copy} before a measured region). *)
let diff a b =
  {
    loads = b.loads - a.loads;
    stores = b.stores - a.stores;
    clwbs = b.clwbs - a.clwbs;
    fences = b.fences - a.fences;
    nt_stores = b.nt_stores - a.nt_stores;
    pm_read_lines = b.pm_read_lines - a.pm_read_lines;
    pm_read_lines_seq = b.pm_read_lines_seq - a.pm_read_lines_seq;
    pm_write_lines = b.pm_write_lines - a.pm_write_lines;
    pm_write_lines_seq = b.pm_write_lines_seq - a.pm_write_lines_seq;
    evictions = b.evictions - a.evictions;
    ns = b.ns -. a.ns;
    bg_ns = b.bg_ns -. a.bg_ns;
  }
