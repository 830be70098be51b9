(* What every specpmt_run subcommand shares: one cmdliner term per flag,
   one usage-error convention, one report envelope and one serial
   service run. *)

open Cmdliner
open Specpmt

(* Operator-input errors: one line on stderr and exit 2, raised before
   the command does any work. *)
let fail fmt = Fmt.kpf (fun _ -> exit 2) Fmt.stderr fmt

(* --scheme, checked against the names the command can run (the
   registries match names case-insensitively) *)
let scheme_term ?(what = "unknown scheme") known =
  let doc = "Crash-consistency scheme (see `list`)." in
  let check s =
    let lc = String.lowercase_ascii in
    if List.exists (fun k -> lc k = lc s) known then s
    else
      fail "specpmt_run: %s %S (known: %s)@." what s (String.concat ", " known)
  in
  Term.(
    const check
    $ Arg.(value & opt string "SpecSPMT" & info [ "s"; "scheme" ] ~doc))

(* --scale: its name (for the reports) and its value *)
let scale_arg =
  let doc = "Input scale: quick, small or full." in
  let parse s =
    match s with
    | "quick" -> (s, Workload.Quick)
    | "small" -> (s, Workload.Small)
    | "full" -> (s, Workload.Full)
    | _ -> fail "specpmt_run: unknown scale %S (quick|small|full)@." s
  in
  Term.(const parse $ Arg.(value & opt string "small" & info [ "scale" ] ~doc))

let seed_arg =
  let doc = "Deterministic seed for the device." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

(* Numeric flags are range-checked as the command line is read, so a bad
   value is an operator-input error (exit 2) instead of an
   Invalid_argument escaping from deep inside a run. *)
let check_int ~flag ?(lo = 1) ?hi v =
  if v < lo then fail "specpmt_run: --%s must be at least %d, not %d@." flag lo v;
  Option.iter
    (fun hi ->
      if v > hi then
        fail "specpmt_run: --%s must be at most %d, not %d@." flag hi v)
    hi;
  v

let int_arg ?lo ?hi ~default flag doc =
  let arg = Arg.value (Arg.opt Arg.int default (Arg.info [ flag ] ~doc)) in
  Term.(const (check_int ~flag ?lo ?hi) $ arg)

let jobs_arg =
  let doc =
    "Worker domains for the independent runs of a sweep (1 = serial).  \
     Defaults to the machine's recommended domain count minus one, capped \
     at 8.  The output is byte-identical for every value."
  in
  Term.(
    const (fun j -> check_int ~flag:"jobs" j)
    $ Arg.(value & opt int (Par.default_jobs ()) & info [ "j"; "jobs" ] ~doc))

(* the report path is opened up front, so an unwritable one fails before
   the run instead of after it *)
let json_arg =
  let doc = "Also write the measurement(s) as a JSON report to $(docv)." in
  let check path =
    Option.iter
      (fun p ->
        match Json.check_writable p with
        | Ok () -> ()
        | Error e -> fail "specpmt_run: cannot write --json report: %s@." e)
      path;
    path
  in
  Term.(
    const check
    $ Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc))

(* The top of every file the CLI writes: its layout version, bumped on
   any incompatible change to the layout, and what wrote it. *)
let schema_version = 3

let envelope ~generator fields =
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: ("generator", Json.Str generator)
    :: fields)

let write_json json report =
  Option.iter
    (fun path ->
      Json.to_file path (report ());
      Fmt.pr "wrote JSON report to %s@." path)
    json

(* a fresh 64 MiB device and heap for one service run *)
let svc_heap ~seed = Heap.create (Pmem.create ~seed Pmem_config.default)

(* A service that does not fit that device is an operator-input error,
   raised as [Svc.Shards.Too_large] while the service is built — on a
   sweep's worker domain too, whose failure the pool re-raises here —
   and reported once, before any report. *)
let fitting ~keys ~shards f =
  try f ()
  with Svc.Shards.Too_large ->
    fail "specpmt_run: --keys %d on %d shards does not fit the 64 MiB device@."
      keys shards

let dataplane_config ~shards ~domains ~batch ~depth ~keys =
  if depth < batch then
    fail "specpmt_run: the data plane needs --depth >= --batch, not %d < %d@."
      depth batch;
  if domains > shards then
    fail "specpmt_run: --domains must be at most --shards@.";
  {
    Svc.Dataplane.shards;
    domains;
    batch_max = batch;
    depth;
    keys;
    log_region_bytes = Svc.Dataplane.default_log_region_bytes;
  }

(* One serial-service run of [stream] on a fresh device: the report and
   the run's wall clock (service construction excluded).  Metrics
   restart with the run. *)
let serve ?params ~seed cfg ocfg stream =
  Obs.Metrics.reset_all ();
  let svc = Svc.Service.create ?params (svc_heap ~seed) cfg in
  let w0 = Unix.gettimeofday () in
  let r = Svc.Openloop.run svc ocfg stream in
  (r, Unix.gettimeofday () -. w0)
