type epoch_span = {
  thread : int;
  eid : int;
  start_ts : int;
  end_ts : int option;
  inactive : bool;
}

let can_reclaim ~all e =
  match e.end_ts with
  | None -> false (* an open epoch is never reclaimable *)
  | Some e_end ->
      e.inactive
      && List.for_all
           (fun o ->
             o == e
             || o.inactive (* inactive epochs don't constrain reclamation *)
             || o.start_ts > e_end)
           all

type t = { mutable spans : epoch_span list }

let create () = { spans = [] }

let register_start t ~thread ~eid ~start_ts =
  t.spans <-
    { thread; eid; start_ts; end_ts = None; inactive = false } :: t.spans

let is s ~thread ~eid = s.thread = thread && s.eid = eid

let register_end t ~thread ~eid ~end_ts =
  t.spans <-
    List.map
      (fun s ->
        if is s ~thread ~eid then
          { s with end_ts = Some end_ts; inactive = true }
        else s)
      t.spans

let may_reclaim t ~thread ~eid =
  match List.find_opt (is ~thread ~eid) t.spans with
  | None -> true (* unregistered epochs (single-thread mode) are free *)
  | Some s -> can_reclaim ~all:t.spans s

let drop t ~thread ~eid =
  t.spans <- List.filter (fun s -> not (is s ~thread ~eid)) t.spans

let reset t = t.spans <- []
let spans t = t.spans
