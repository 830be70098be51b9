type event = { seq : int; label : string; a : int; b : int }

let nil = { seq = -1; label = ""; a = 0; b = 0 }

(* One ring per domain.  A child domain inherits the parent's capacity
   (with an empty ring), so enabling tracing before fanning work out to a
   domain pool enables it in every worker; each worker's events stay
   local and are harvested (e.g. into crashmc failures) on the worker
   itself before join. *)
type state = { mutable ring : event array; mutable pos : int }

let key =
  Domain.DLS.new_key
    ~split_from_parent:(fun (parent : state) ->
      let n = Array.length parent.ring in
      { ring = (if n = 0 then [||] else Array.make n nil); pos = 0 })
    (fun () -> { ring = [||]; pos = 0 })

let st () = Domain.DLS.get key

let set_capacity n =
  let s = st () in
  s.ring <- (if n <= 0 then [||] else Array.make n nil);
  s.pos <- 0

let clear () = set_capacity (Array.length (st ()).ring)

let emit ?(a = 0) ?(b = 0) label =
  let s = st () in
  let r = s.ring in
  let n = Array.length r in
  if n > 0 then begin
    r.(s.pos mod n) <- { seq = s.pos; label; a; b };
    s.pos <- s.pos + 1
  end

let recent () =
  let s = st () in
  let r = s.ring in
  let n = Array.length r in
  let count = min n s.pos in
  List.init count (fun i -> r.((s.pos - count + i) mod n))

let pp_event ppf e = Fmt.pf ppf "#%d %s a=%d b=%d" e.seq e.label e.a e.b

let dump ppf () =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_event e) (recent ())
