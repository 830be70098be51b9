(* In-memory span recorder for traced runs.

   A span brackets one call the harness makes into the library: name,
   op id (stream index; a child inherits its parent's), parent, host
   start/end, and the deltas of the device clock and counters across it.
   Self time is a span's time minus its children's.  Per-name aggregates
   are exact over every span; full records are kept for the first [keep]
   spans and written out at exit.  Everything lives in flat int/float
   arrays, so recording a span allocates nothing and the minor-words
   figures it reports are the library's own. *)

open Specpmt

let max_depth = 8

let counter_names =
  [| "loads"; "stores"; "clwbs"; "fences"; "read_lines"; "write_lines"; "evictions" |]

let ncnt = Array.length counter_names

let counter (s : Stats.t) = function
  | 0 -> s.Stats.loads
  | 1 -> s.Stats.stores
  | 2 -> s.Stats.clwbs
  | 3 -> s.Stats.fences
  | 4 -> s.Stats.pm_read_lines
  | 5 -> s.Stats.pm_write_lines
  | _ -> s.Stats.evictions

(* per-name aggregate; floats in a float array so updates stay unboxed *)
type agg = {
  mutable count : int;
  mutable host : int;
  mutable host_self : int;
  fl : float array;  (** sim, sim_self, minor_words_self *)
  cnt : int array;  (** counter totals *)
}

let sim a = a.fl.(0)
let sim_self a = a.fl.(1)
let words_self a = a.fl.(2)

type t = {
  mutable pm : Pmem.t option;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable aggs : agg array;
  mutable depth : int;
  (* the open spans, by depth *)
  fr_name : int array;
  fr_op : int array;
  fr_rec : int array;  (** kept-record index, -1 if dropped *)
  fr_host0 : int array;
  fr_chost : int array;  (** children's host total *)
  fr_fl : float array;  (** 4 per depth: sim0, words0, children's sim, words *)
  fr_cnt0 : int array;
  (* kept records *)
  keep : int;
  mutable kept : int;
  mutable dropped : int;
  mutable orphans : int;  (** root spans without an op id *)
  s_name : int array;
  s_op : int array;
  s_parent : int array;
  s_start : int array;
  s_end : int array;
  s_fl : float array;  (** 2 per record: sim, minor words *)
  s_cnt : int array;
  t0 : int;
  acc : float array;
      (** device-clock accounting for the conservation check: advance of
          devices already replaced, start of the current one, device time
          that passed outside every span, end of the last root span *)
}

let sim_now t =
  match t.pm with Some pm -> (Pmem.stats pm).Stats.ns | None -> 0.0

let create ?(keep = 200_000) () =
  {
    pm = None;
    names = Hashtbl.create 32;
    name_of = [||];
    aggs = [||];
    depth = 0;
    fr_name = Array.make max_depth 0;
    fr_op = Array.make max_depth 0;
    fr_rec = Array.make max_depth 0;
    fr_host0 = Array.make max_depth 0;
    fr_chost = Array.make max_depth 0;
    fr_fl = Array.make (4 * max_depth) 0.0;
    fr_cnt0 = Array.make (ncnt * max_depth) 0;
    keep;
    kept = 0;
    dropped = 0;
    orphans = 0;
    s_name = Array.make keep 0;
    s_op = Array.make keep 0;
    s_parent = Array.make keep 0;
    s_start = Array.make keep 0;
    s_end = Array.make keep 0;
    s_fl = Array.make (2 * keep) 0.0;
    s_cnt = Array.make (ncnt * keep) 0;
    t0 = Host.now_ns ();
    acc = Array.make 4 0.0;
  }

(* Spans read the clock and counters of one device at a time; switch
   only between root spans. *)
let set_device t pm =
  if t.depth > 0 then invalid_arg "Spans.set_device: span open";
  let now = sim_now t in
  t.acc.(0) <- t.acc.(0) +. (now -. t.acc.(1));
  t.acc.(2) <- t.acc.(2) +. (now -. t.acc.(3));
  t.pm <- Some pm;
  t.acc.(1) <- sim_now t;
  t.acc.(3) <- t.acc.(1)

(* Intern a span name; call once per name, off the hot path. *)
let id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.replace t.names name i;
      t.name_of <- Array.append t.name_of [| name |];
      t.aggs <-
        Array.append t.aggs
          [| { count = 0; host = 0; host_self = 0; fl = Array.make 3 0.0;
               cnt = Array.make ncnt 0 } |];
      i

let enter t name ~op =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Spans.enter: too deep";
  let parent = if d > 0 then t.fr_rec.(d - 1) else -1 in
  let op = if op < 0 && d > 0 then t.fr_op.(d - 1) else op in
  if op < 0 then t.orphans <- t.orphans + 1;
  let sim = sim_now t in
  if d = 0 then t.acc.(2) <- t.acc.(2) +. (sim -. t.acc.(3));
  t.fr_name.(d) <- name;
  t.fr_op.(d) <- op;
  if t.kept < t.keep && (d = 0 || parent >= 0) then begin
    let i = t.kept in
    t.kept <- i + 1;
    t.fr_rec.(d) <- i;
    t.s_name.(i) <- name;
    t.s_op.(i) <- op;
    t.s_parent.(i) <- parent
  end
  else begin
    t.fr_rec.(d) <- -1;
    t.dropped <- t.dropped + 1
  end;
  (match t.pm with
  | Some pm ->
      let s = Pmem.stats pm in
      for c = 0 to ncnt - 1 do
        t.fr_cnt0.((d * ncnt) + c) <- counter s c
      done
  | None -> Array.fill t.fr_cnt0 (d * ncnt) ncnt 0);
  t.fr_chost.(d) <- 0;
  t.fr_fl.((4 * d) + 2) <- 0.0;
  t.fr_fl.((4 * d) + 3) <- 0.0;
  t.depth <- d + 1;
  t.fr_fl.(4 * d) <- sim;
  t.fr_fl.((4 * d) + 1) <- Gc.minor_words ();
  t.fr_host0.(d) <- Host.now_ns ()

let leave t =
  let host1 = Host.now_ns () in
  let words1 = Gc.minor_words () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Spans.leave: no open span";
  let sim1 = sim_now t in
  let host = host1 - t.fr_host0.(d) in
  let sim = sim1 -. t.fr_fl.(4 * d) in
  let words = words1 -. t.fr_fl.((4 * d) + 1) in
  let a = t.aggs.(t.fr_name.(d)) in
  a.count <- a.count + 1;
  a.host <- a.host + host;
  a.host_self <- a.host_self + (host - t.fr_chost.(d));
  a.fl.(0) <- a.fl.(0) +. sim;
  a.fl.(1) <- a.fl.(1) +. (sim -. t.fr_fl.((4 * d) + 2));
  a.fl.(2) <- a.fl.(2) +. (words -. t.fr_fl.((4 * d) + 3));
  let i = t.fr_rec.(d) in
  (match t.pm with
  | Some pm ->
      let s = Pmem.stats pm in
      for c = 0 to ncnt - 1 do
        let v = counter s c - t.fr_cnt0.((d * ncnt) + c) in
        a.cnt.(c) <- a.cnt.(c) + v;
        if i >= 0 then t.s_cnt.((i * ncnt) + c) <- v
      done
  | None -> ());
  if i >= 0 then begin
    t.s_start.(i) <- t.fr_host0.(d) - t.t0;
    t.s_end.(i) <- host1 - t.t0;
    t.s_fl.(2 * i) <- sim;
    t.s_fl.((2 * i) + 1) <- words
  end;
  if d > 0 then begin
    let p = d - 1 in
    t.fr_chost.(p) <- t.fr_chost.(p) + host;
    t.fr_fl.((4 * p) + 2) <- t.fr_fl.((4 * p) + 2) +. sim;
    t.fr_fl.((4 * p) + 3) <- t.fr_fl.((4 * p) + 3) +. words
  end
  else t.acc.(3) <- sim1;
  t.depth <- d

(* Bracket [f] in a span when tracing ([t = None]: just run it).  For
   call sites off the per-op hot path: interning the name allocates. *)
let span t name ~op f =
  match t with
  | None -> f ()
  | Some t -> (
      enter t (id t name) ~op;
      match f () with
      | x ->
          leave t;
          x
      | exception e ->
          leave t;
          raise e)

let agg t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> Some t.aggs.(i)
  | None -> None

let count t name = match agg t name with Some a -> a.count | None -> 0

(* [f] summed over the spans of [name]; 0 when there are none *)
let total t name f = match agg t name with Some a -> f a | None -> 0.0

(* [f] averaged over the spans of [name]; 0 when there are none *)
let mean t name f =
  match agg t name with
  | Some a when a.count > 0 -> f a /. float_of_int a.count
  | _ -> 0.0

let host a = float_of_int a.host
let host_self a = float_of_int a.host_self
let loads a = float_of_int a.cnt.(0)
let clwbs a = float_of_int a.cnt.(2)
let fences a = float_of_int a.cnt.(3)

(* Conservation: the self times of all spans plus the device time that
   passed outside every span equal the device clock's advance. *)
type conservation = { self_sum : float; outside : float; advance : float }

let conservation t =
  if t.depth > 0 then invalid_arg "Spans.conservation: span open";
  let now = sim_now t in
  {
    self_sum = Array.fold_left (fun s a -> s +. sim_self a) 0.0 t.aggs;
    outside = t.acc.(2) +. (now -. t.acc.(3));
    advance = t.acc.(0) +. (now -. t.acc.(1));
  }

(* Exact: every modelled charge is a small multiple of 0.25 ns, so
   these sums carry no rounding. *)
let conserved c = c.self_sum +. c.outside = c.advance

(* Every span chains to an op id (roots must carry one; children
   inherit), and every kept record's parent was kept before it. *)
let chains t =
  t.orphans = 0
  &&
  let ok = ref true in
  for i = 0 to t.kept - 1 do
    if t.s_op.(i) < 0 || t.s_parent.(i) >= i then ok := false
  done;
  !ok

let write t path =
  let oc = open_out path in
  let num = Report.num in
  output_string oc "{\"spans\":[";
  for i = 0 to t.kept - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":\"%s\",\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"sim_ns\":%s,\"minor_words\":%s"
      t.name_of.(t.s_name.(i)) t.s_op.(i) t.s_parent.(i) t.s_start.(i)
      t.s_end.(i) (num t.s_fl.(2 * i)) (num t.s_fl.((2 * i) + 1));
    Array.iteri
      (fun c n -> Printf.fprintf oc ",\"%s\":%d" n t.s_cnt.((i * ncnt) + c))
      counter_names;
    output_char oc '}'
  done;
  Printf.fprintf oc "\n],\"dropped\":%d,\"aggregates\":{" t.dropped;
  Array.iteri
    (fun i name ->
      let a = t.aggs.(i) in
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n\"%s\":{\"count\":%d,\"host_ns\":%d,\"host_self_ns\":%d,\"sim_ns\":%s,\"sim_self_ns\":%s,\"minor_words_self\":%s"
        name a.count a.host a.host_self (num (sim a)) (num (sim_self a))
        (num (words_self a));
      Array.iteri (fun c n -> Printf.fprintf oc ",\"%s\":%d" n a.cnt.(c)) counter_names;
      output_char oc '}')
    t.name_of;
  let c = conservation t in
  Printf.fprintf oc
    "\n},\"conservation\":{\"self_sum_ns\":%s,\"outside_ns\":%s,\"advance_ns\":%s,\"conserved\":%b}}\n"
    (num c.self_sum) (num c.outside) (num c.advance) (conserved c);
  close_out oc
