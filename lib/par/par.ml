open Specpmt_obs

type error = {
  index : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count () - 1))

let run ?jobs ?(chunk = 1) ~n f =
  if n < 0 then invalid_arg "Par.run: negative n";
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let chunk = max 1 chunk in
  if n = 0 then [||]
  else if jobs = 1 then begin
    (* Inline serial reference path: ascending index order on the
       calling domain (Array.init's evaluation order is unspecified). *)
    let r0 = f 0 in
    let out = Array.make n r0 in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end
  else begin
    let workers = min jobs n in
    (* Disjoint indices per worker; the join provides the happens-before
       edge that makes the coordinator's reads safe. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed : error option Atomic.t = Atomic.make None in
    let record_failure index exn backtrace =
      let rec cas () =
        let cur = Atomic.get failed in
        let better =
          match cur with None -> true | Some e -> index < e.index
        in
        if better && not (Atomic.compare_and_set failed cur (Some { index; exn; backtrace }))
        then cas ()
      in
      cas ()
    in
    let worker () =
      let running = ref true in
      while !running do
        if Atomic.get failed <> None then running := false
        else begin
          let lo = Atomic.fetch_and_add next chunk in
          if lo >= n then running := false
          else begin
            let hi = min n (lo + chunk) in
            let i = ref lo in
            while !i < hi && Atomic.get failed = None do
              (match f !i with
              | v -> results.(!i) <- Some v
              | exception exn ->
                  record_failure !i exn (Printexc.get_raw_backtrace ()));
              incr i
            done
          end
        end
      done;
      Metrics.export ()
    in
    let domains = Array.init workers (fun _ -> Domain.spawn worker) in
    (* Join and merge metrics in worker order, deterministically. *)
    Array.iter (fun d -> Metrics.absorb (Domain.join d)) domains;
    (match Atomic.get failed with
    | Some e -> Printexc.raise_with_backtrace e.exn e.backtrace
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list ?jobs ?chunk f xs =
  let arr = Array.of_list xs in
  run ?jobs ?chunk ~n:(Array.length arr) (fun i -> f arr.(i))
  |> Array.to_list

(* Long-lived workers: the pipeline shape (a coordinator exchanging
   messages with resident domains) rather than run's fan-out shape.
   The lifecycle contract is the same — each worker accumulates
   observability in its own domain-local registry, and join merges it
   into the caller's — so a dataplane worker gets the metrics story of
   a Par.run job for free. *)
type 'a worker = {
  dom : ('a outcome * Metrics.export) Domain.t;
}

and 'a outcome =
  | Ok_ of 'a
  | Err of exn * Printexc.raw_backtrace

let spawn f =
  {
    dom =
      Domain.spawn (fun () ->
          let outcome =
            match f () with
            | v -> Ok_ v
            | exception exn -> Err (exn, Printexc.get_raw_backtrace ())
          in
          (outcome, Metrics.export ()));
  }

let join w =
  let outcome, m = Domain.join w.dom in
  Metrics.absorb m;
  match outcome with
  | Ok_ v -> v
  | Err (exn, bt) -> Printexc.raise_with_backtrace exn bt

(* Join every worker (observability from all of them, in array order)
   before re-raising the lowest-index failure — a partial join would
   leave domains running and their metrics lost. *)
let join_all ws =
  let outcomes =
    Array.map
      (fun w ->
        let outcome, m = Domain.join w.dom in
        Metrics.absorb m;
        outcome)
      ws
  in
  Array.iter
    (function Err (exn, bt) -> Printexc.raise_with_backtrace exn bt | Ok_ _ -> ())
    outcomes;
  Array.map (function Ok_ v -> v | Err _ -> assert false) outcomes
