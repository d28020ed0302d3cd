type spec =
  | Baseline of Cs_sim.Pipeline.scheduler
  | Passes of Cs_core.Pass.t list

type t = {
  label : string;
  seed : int;
  machine : Cs_machine.Machine.t;
  faults : Cs_resil.Fault.plan;
  region : Cs_ddg.Region.t;
  spec : spec;
}

let scheduling_machine t = Cs_machine.Machine.degrade t.machine t.faults

let spec_to_string = function
  | Baseline s -> "baseline:" ^ Cs_sim.Pipeline.scheduler_name s
  | Passes l -> "passes:" ^ String.concat "," (Cs_core.Sequence.names l)

let spec_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "malformed scheduler spec %S" s)
  | Some i ->
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match kind with
    | "baseline" ->
      (match Cs_sim.Pipeline.scheduler_of_name rest with
      | Some sch -> Ok (Baseline sch)
      | None -> Error (Printf.sprintf "unknown baseline scheduler %S" rest))
    | "passes" ->
      (match Cs_core.Sequence.of_names (String.split_on_char ',' rest) with
      | Ok passes -> Ok (Passes passes)
      | Error msg -> Error msg)
    | _ -> Error (Printf.sprintf "malformed scheduler spec %S" s))

let pp fmt t =
  Format.fprintf fmt "%s (seed %d): %d instrs on %s%s via %s" t.label t.seed
    (Cs_ddg.Region.n_instrs t.region) t.machine.Cs_machine.Machine.name
    (if t.faults = [] then ""
     else Printf.sprintf " [%s]" (Cs_resil.Fault.to_string t.faults))
    (spec_to_string t.spec)
