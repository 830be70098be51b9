(** The one layout of a run report: its values filed by the clock they
    were read from.

    - [invariant]: counts and checksums — what the run did;
    - [modelled]: values on the simulated clock — device time, rates and
      latencies in simulated time, device traffic;
    - [measured]: values read from the host clock, which move from run
      to run.

    Two runs of the same inputs are compared by dropping every
    [measured] key and comparing the rest.  Every run report of the
    library and of the CLI has this layout (see EXPERIMENTS.md, "JSON
    bench reports"). *)

type fields = (string * Json.t) list

val v : invariant:fields -> modelled:fields -> measured:fields -> Json.t
(** [{"invariant": {..}, "modelled": {..}, "measured": {..}}]: exactly
    these three keys, in this order, each an object (possibly empty). *)

val add :
  ?invariant:fields -> ?modelled:fields -> ?measured:fields -> Json.t -> Json.t
(** Append fields to the sections of a report made by {!v} or {!group}.
    Raises [Invalid_argument] on any other value. *)

val group : (string * Json.t) list -> Json.t
(** [group runs] files the sections of named runs (reports made by {!v}
    or {!group}) under their names: the result's [invariant] maps each
    run's name to that run's [invariant], in the order given, and so on
    for the other two.  A run whose section is empty is left out of that
    section.  Raises [Invalid_argument] if a run is not such a report. *)
