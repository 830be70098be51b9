(** Per-domain registry of named counters, gauges and histograms.

    Subsystems register metrics lazily by name ([counter "reclaim.cycles"]
    returns the same cell every time {e on the same domain}) and bump
    them with no further coordination; the harness snapshots or resets
    the whole registry around each measured run.  Names are
    dot-separated [subsystem.metric] paths.

    The registry is domain-local storage, so parallel harness workers
    (see [Specpmt.Par]) never contend on it; a worker's registry is
    serialized with {!export} before join and merged into the parent's
    with {!absorb}.  Because the registry is per-domain, a cell obtained
    on one domain must not be bumped from another — re-look it up by
    name instead (lookup is one hashtable probe). *)

type counter
type gauge

val counter : string -> counter
(** Get or create.  Raises [Invalid_argument] if the name is already
    registered as a different kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

val histogram : string -> Hist.t
(** Get or create a registry-owned histogram (also reset by
    {!reset_all}). *)

val reset_all : unit -> unit
(** Zero every counter and gauge and reset every histogram — called by
    the harness between measured runs. *)

(** {1 Cross-domain merge} *)

type exported =
  | Counter of int
  | Gauge of float
  | Histogram of Hist.snapshot

type export = (string * exported) list
(** A registry snapshot: name-sorted, with zero counters/gauges and
    empty histograms omitted (so merging an idle worker is a no-op). *)

val export : unit -> export
(** Snapshot the calling domain's registry for transfer to another
    domain. *)

val absorb : export -> unit
(** Merge an export into the calling domain's registry: counters add,
    histograms merge bucket-wise, gauges (level samples, not totals)
    take the exported value. *)

val dump : unit -> Json.t
(** All metrics, sorted by name:
    [{"counters": {..}, "gauges": {..}, "histograms": {..}}].  Zero
    counters/gauges and empty histograms are omitted, so a dump taken
    after {!reset_all} reflects only what the measured run actually
    touched — independent of which names earlier runs on the same
    domain had registered. *)
