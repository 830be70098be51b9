open Specpmt_txn

type kind = Raw | Pmdk | Kamino | Spht | Spec_dp | Spec | Hashlog

let all = [ Raw; Pmdk; Kamino; Spht; Spec_dp; Spec; Hashlog ]

let name = function
  | Raw -> "raw"
  | Pmdk -> "PMDK"
  | Kamino -> "Kamino-Tx"
  | Spht -> "SPHT"
  | Spec_dp -> "SpecSPMT-DP"
  | Spec -> "SpecSPMT"
  | Hashlog -> "Spec-hashlog"

let of_name s =
  List.find_opt (fun k -> String.lowercase_ascii (name k) = String.lowercase_ascii s) all

(* The SpecPMT schemes are the only ones with tunable runtime parameters
   (reclamation policy, recovery mode...); [None] for everything else. *)
let spec_params = function
  | Spec -> Some Spec_soft.default_params
  | Spec_dp -> Some Spec_soft.dp_params
  | Raw | Pmdk | Kamino | Spht | Hashlog -> None

let create ?spec_params:override heap k =
  (match (override, spec_params k) with
  | Some _, None ->
      Fmt.invalid_arg "Registry.create: %s takes no SpecPMT params" (name k)
  | _ -> ());
  match k with
  | Raw -> Raw.create heap
  | Pmdk ->
      let region_slot = Slots.pmdk_region in
      Undo.create ~name:"PMDK" ~persist:true
        ~log:(Intent_log.create heap ~region_slot ~old_values:true)
        ~recover:
          (Ok (fun () -> Intent_log.attach heap ~region_slot ~old_values:true))
        heap
  | Kamino ->
      (* no data flush at commit: the omitted backup copy would absorb
         data persistence off the critical path *)
      Undo.create ~name:"Kamino-Tx" ~persist:false
        ~log:
          (Intent_log.create heap ~region_slot:Slots.kamino_region
             ~old_values:false)
        ~recover:
          (Error
             "Kamino-Tx upper-bound model omits the backup copy and cannot \
              recover (paper Section 7.1.2)")
        heap
  | Spht -> Spht.create heap
  | (Spec_dp | Spec) as k ->
      let params =
        match override with
        | Some p -> p
        | None -> Option.get (spec_params k)
      in
      fst (Spec_soft.create heap params)
  | Hashlog -> Spec_hashlog.create heap

let _ = Ctx.raw_ctx (* re-exported convenience, keep the dep explicit *)
