type t = { mutable spans : Epoch_protocol.epoch_span list }

let create () = { spans = [] }

let register_start t ~thread ~eid ~start_ts =
  t.spans <-
    { Epoch_protocol.thread; eid; start_ts; end_ts = None; inactive = false }
    :: t.spans

let register_end t ~thread ~eid ~end_ts =
  t.spans <-
    List.map
      (fun s ->
        if s.Epoch_protocol.thread = thread && s.Epoch_protocol.eid = eid then
          { s with Epoch_protocol.end_ts = Some end_ts; inactive = true }
        else s)
      t.spans

let may_reclaim t ~thread ~eid =
  match
    List.find_opt
      (fun s -> s.Epoch_protocol.thread = thread && s.Epoch_protocol.eid = eid)
      t.spans
  with
  | None -> true (* unregistered epochs (single-thread mode) are free *)
  | Some s -> Epoch_protocol.can_reclaim ~all:t.spans s

let drop t ~thread ~eid =
  t.spans <-
    List.filter
      (fun s ->
        not (s.Epoch_protocol.thread = thread && s.Epoch_protocol.eid = eid))
      t.spans

let reset t = t.spans <- []
let spans t = t.spans
