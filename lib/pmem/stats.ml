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

let to_json t =
  let open Specpmt_obs.Json in
  Obj
    [
      ("loads", Int t.loads);
      ("stores", Int t.stores);
      ("clwbs", Int t.clwbs);
      ("fences", Int t.fences);
      ("nt_stores", Int t.nt_stores);
      ("pm_read_lines", Int t.pm_read_lines);
      ("pm_read_lines_seq", Int t.pm_read_lines_seq);
      ("pm_write_lines", Int t.pm_write_lines);
      ("pm_write_lines_seq", Int t.pm_write_lines_seq);
      ("evictions", Int t.evictions);
      ("ns", Float t.ns);
      ("bg_ns", Float t.bg_ns);
    ]

let pp ppf t =
  Fmt.pf ppf
    "@[<v>loads %d; stores %d; clwbs %d; fences %d; nt %d@ pm-reads %d \
     lines (%d seq); pm-writes %d lines (%d seq); evictions %d@ time %.0f \
     ns (+%.0f ns background)@]"
    t.loads t.stores t.clwbs t.fences t.nt_stores t.pm_read_lines
    t.pm_read_lines_seq t.pm_write_lines t.pm_write_lines_seq t.evictions
    t.ns t.bg_ns
