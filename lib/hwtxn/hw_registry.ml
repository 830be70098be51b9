open Specpmt_txn

type kind = Ede | Hoop | Spec_hw_dp | Spec_hw | Nolog

let all = [ Ede; Hoop; Spec_hw_dp; Spec_hw; Nolog ]

let name = function
  | Ede -> "EDE"
  | Hoop -> "HOOP"
  | Spec_hw_dp -> "SpecHPMT-DP"
  | Spec_hw -> "SpecHPMT"
  | Nolog -> "no-log"

let of_name s =
  List.find_opt
    (fun k -> String.lowercase_ascii (name k) = String.lowercase_ascii s)
    all

let create heap = function
  | Ede ->
      let region_slot = Hw_slots.ede_region in
      Undo.create ~name:"EDE" ~persist:true
        ~log:(Nt_log.view (Nt_log.create heap ~region_slot ~capacity:1024))
        ~recover:(Ok (fun () -> Nt_log.view (Nt_log.attach heap ~region_slot)))
        heap
  | Hoop -> Hoop.create heap
  | Spec_hw_dp -> fst (Spec_hw.create heap Spec_hw.dp_params)
  | Spec_hw -> fst (Spec_hw.create heap Spec_hw.default_params)
  | Nolog -> Nolog.create heap

let _ = Ctx.raw_ctx
