type fields = (string * Json.t) list

let v ~invariant ~modelled ~measured =
  Json.Obj
    [
      ("invariant", Json.Obj invariant);
      ("modelled", Json.Obj modelled);
      ("measured", Json.Obj measured);
    ]

let split = function
  | Json.Obj
      [
        ("invariant", Json.Obj i);
        ("modelled", Json.Obj m);
        ("measured", Json.Obj s);
      ] ->
      (i, m, s)
  | _ -> invalid_arg "Sections: not an invariant/modelled/measured report"

let add ?(invariant = []) ?(modelled = []) ?(measured = []) report =
  let i, m, s = split report in
  v ~invariant:(i @ invariant) ~modelled:(m @ modelled) ~measured:(s @ measured)

let group runs =
  let runs = List.map (fun (name, r) -> (name, split r)) runs in
  let section pick =
    List.filter_map
      (fun (name, r) ->
        match pick r with [] -> None | fs -> Some (name, Json.Obj fs))
      runs
  in
  v
    ~invariant:(section (fun (i, _, _) -> i))
    ~modelled:(section (fun (_, m, _) -> m))
    ~measured:(section (fun (_, _, s) -> s))
