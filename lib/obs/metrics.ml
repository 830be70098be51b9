type counter = { mutable n : int }
type gauge = { mutable g : float }

type item = C of counter | G of gauge | H of Hist.t

(* One registry per domain: subsystems bump their metrics with zero
   cross-domain coordination, and the harness merges worker registries
   into the parent's with {!export}/{!absorb} when a domain pool joins
   (see [Specpmt.Par]). *)
let key : (string, item) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get key

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let get name mk match_item =
  let registry = registry () in
  match Hashtbl.find_opt registry name with
  | Some item -> (
      match match_item item with
      | Some v -> v
      | None ->
          Fmt.invalid_arg "Metrics: %S already registered as a %s" name
            (kind_name item))
  | None ->
      let item, v = mk () in
      Hashtbl.replace registry name item;
      v

let counter name =
  get name
    (fun () ->
      let c = { n = 0 } in
      (C c, c))
    (function C c -> Some c | _ -> None)

let incr c = c.n <- c.n + 1
let add c k = c.n <- c.n + k
let counter_value c = c.n

let gauge name =
  get name
    (fun () ->
      let g = { g = 0.0 } in
      (G g, g))
    (function G g -> Some g | _ -> None)

let set_gauge g v = g.g <- v

let histogram name =
  get name
    (fun () ->
      let h = Hist.create () in
      (H h, h))
    (function H h -> Some h | _ -> None)

let reset_all () =
  Hashtbl.iter
    (fun _ item ->
      match item with
      | C c -> c.n <- 0
      | G g -> g.g <- 0.0
      | H h -> Hist.reset h)
    (registry ())

type exported =
  | Counter of int
  | Gauge of float
  | Histogram of Hist.snapshot

type export = (string * exported) list

let export () =
  let items = ref [] in
  Hashtbl.iter
    (fun name item ->
      let e =
        match item with
        | C c -> if c.n = 0 then None else Some (Counter c.n)
        | G g -> if g.g = 0.0 then None else Some (Gauge g.g)
        | H h ->
            let s = Hist.snapshot h in
            if s.Hist.count = 0 then None else Some (Histogram s)
      in
      match e with Some e -> items := (name, e) :: !items | None -> ())
    (registry ());
  List.sort (fun (a, _) (b, _) -> compare a b) !items

let absorb (e : export) =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> add (counter name) n
      | Gauge g -> set_gauge (gauge name) g
      | Histogram s -> Hist.absorb (histogram name) s)
    e

let dump () =
  (* Zero counters/gauges and empty histograms are skipped: they are
     names left registered by {e earlier} runs on this domain, zeroed by
     [reset_all] — including them would make a measurement's dump depend
     on what happened to run before it on the same domain, which breaks
     byte-identical reports between serial and domain-pooled runs. *)
  let cs = ref [] and gs = ref [] and hs = ref [] in
  Hashtbl.iter
    (fun name item ->
      match item with
      | C c -> if c.n <> 0 then cs := (name, Json.Int c.n) :: !cs
      | G g -> if g.g <> 0.0 then gs := (name, Json.Float g.g) :: !gs
      | H h ->
          let s = Hist.snapshot h in
          if s.Hist.count <> 0 then hs := (name, Hist.to_json s) :: !hs)
    (registry ());
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) !l in
  Json.Obj
    [
      ("counters", Json.Obj (sorted cs));
      ("gauges", Json.Obj (sorted gs));
      ("histograms", Json.Obj (sorted hs));
    ]
