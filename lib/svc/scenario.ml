module Json = Specpmt_obs.Json

(* YCSB A-F workload specifications and their deterministic op streams.

   Each mix is a fixed fraction vector over {read, update, insert, rmw,
   scan} plus a key distribution.  Streams are generated up front from a
   seeded RNG with one coin + one key draw per op (inserts draw the coin
   only), so the stream is a pure function of (spec, ops, keys, seed).
   This is the one seeded drawer: the open- and closed-loop drivers and
   the data plane's router all consume these arrays. *)

type mix = A | B | C | D | E | F

type dist = Uniform | Zipf of float | Latest of float

type spec = {
  sc_mix : mix;
  read : float;
  update : float;
  insert : float;
  rmw : float;
  scan : float;
  dist : dist;
  scan_max : int;
}

let default_theta = 0.99

let spec ?(theta = default_theta) ?(scan_max = 16) mix =
  if scan_max < 1 then invalid_arg "Scenario.spec: scan_max < 1";
  let z =
    {
      sc_mix = mix;
      read = 0.0;
      update = 0.0;
      insert = 0.0;
      rmw = 0.0;
      scan = 0.0;
      dist = Zipf theta;
      scan_max;
    }
  in
  match mix with
  | A -> { z with read = 0.5; update = 0.5 }
  | B -> { z with read = 0.95; update = 0.05 }
  | C -> { z with read = 1.0 }
  | D -> { z with read = 0.95; insert = 0.05; dist = Latest theta }
  | E -> { z with scan = 0.95; insert = 0.05 }
  | F -> { z with read = 0.5; rmw = 0.5 }

let all_mixes = [ A; B; C; D; E; F ]

let mix_to_string = function
  | A -> "A"
  | B -> "B"
  | C -> "C"
  | D -> "D"
  | E -> "E"
  | F -> "F"

let mix_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "A" -> Ok A
  | "B" -> Ok B
  | "C" -> Ok C
  | "D" -> Ok D
  | "E" -> Ok E
  | "F" -> Ok F
  | s -> Error (Printf.sprintf "unknown YCSB mix %S (want A..F)" s)

(* Inverse-CDF Zipf over [0, n): cumulative weights 1/(k+1)^theta are
   precomputed once, each draw is one float and a binary search. *)
let zipf_sampler ~n ~theta st =
  if theta <= 0.0 then fun () -> Random.State.int st n
  else begin
    let cum = Array.make n 0.0 in
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (k + 1) ** theta));
      cum.(k) <- !acc
    done;
    let total = !acc in
    fun () ->
      let u = Random.State.float st total in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo
  end

let dist_to_string = function
  | Uniform -> "uniform"
  | Zipf t -> Printf.sprintf "zipf:%g" t
  | Latest t -> Printf.sprintf "latest:%g" t

let op_stream sp ~ops ~keys ~seed =
  if ops < 0 then invalid_arg "Scenario.op_stream: ops < 0";
  if keys < 1 then invalid_arg "Scenario.op_stream: keys < 1";
  let st = Random.State.make [| 0x9C5B; seed |] in
  let theta =
    match sp.dist with Uniform -> 0.0 | Zipf t | Latest t -> t
  in
  let zdraw = zipf_sampler ~n:keys ~theta st in
  (* D's insert frontier: the table is fully pre-adopted, so "insert"
     means first client write to a fresh key.  The frontier starts at
     half the keyspace (so latest/read draws have a populated window)
     and advances one key per insert; when the keyspace is exhausted,
     inserts wrap onto the oldest keys. *)
  let frontier = ref (max 1 (keys / 2)) in
  let wrapped = ref 0 in
  let insert_key () =
    if !frontier < keys then (
      let k = !frontier in
      incr frontier;
      k)
    else (
      let k = !wrapped mod keys in
      incr wrapped;
      k)
  in
  let draw_key () =
    match sp.dist with
    | Uniform -> Random.State.int st keys
    | Zipf _ -> zdraw ()
    | Latest _ ->
        (* zipf over recency rank: rank 0 is the newest inserted key *)
        let r = zdraw () mod !frontier in
        !frontier - 1 - r
  in
  let t_read = sp.read in
  let t_update = t_read +. sp.update in
  let t_insert = t_update +. sp.insert in
  let t_rmw = t_insert +. sp.rmw in
  let out = Array.make ops (0, Service.Read) in
  (* explicit loop: draws must happen in stream order *)
  for i = 0 to ops - 1 do
    let u = Random.State.float st 1.0 in
    let pair =
      if u < t_read then (draw_key (), Service.Read)
      else if u < t_update then (draw_key (), Service.Write (1_000_000 + i))
      else if u < t_insert then (insert_key (), Service.Write (1_000_000 + i))
      else if u < t_rmw then (draw_key (), Service.Rmw (1 + (i land 0xFF)))
      else
        (draw_key (), Service.Scan (1 + Random.State.int st sp.scan_max))
    in
    out.(i) <- pair
  done;
  out

let tally stream =
  let t = Shards.tally () in
  Array.iter (fun (_, op) -> Shards.count t op 0) stream;
  t

let spec_to_json sp =
  Json.Obj
    [
      ("mix", Json.Str (mix_to_string sp.sc_mix));
      ("read", Json.Float sp.read);
      ("update", Json.Float sp.update);
      ("insert", Json.Float sp.insert);
      ("rmw", Json.Float sp.rmw);
      ("scan", Json.Float sp.scan);
      ("dist", Json.Str (dist_to_string sp.dist));
      ("scan_max", Json.Int sp.scan_max);
    ]
