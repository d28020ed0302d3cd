(* One convergent scheduling job run in process, the way
   [Cs_sim.Pipeline.convergent] runs it, but split into its public
   calls so the traced run can time each layer:

     workloads.generate   Suite entry -> region
     core.driver          Cs_core.Driver.run (default pass sequence)
       core.context       estimated by a separate Context.make probe
       core.pass.<NAME>   between successive [~observe] callbacks
     sched.list           Cs_sched.List_scheduler.run
     sched.validate       Cs_sched.Validator.check

   A pass span runs from the previous callback to its own, so it also
   holds the driver's per-pass renormalisation and quarantine gate; the
   first pass span starts after the context estimate. The driver span
   minus its children is the driver's own time (matrix allocation and
   the final extraction). *)

type scenario = {
  bench : string;
  scale : int;
  machine_name : string;
  seed : int option;  (** driver seed; [None] = the driver's default *)
  machine : Cs_machine.Machine.t;
  entry : Cs_workloads.Suite.entry;
}

let label s =
  Printf.sprintf "%s s%d/%s%s" s.bench s.scale s.machine_name
    (match s.seed with Some k -> Printf.sprintf " seed %d" k | None -> "")

let scenario ?seed ~machine bench scale =
  let machine_v =
    match Cs_svc.Proto.machine_of_name machine with
    | Ok m -> m
    | Error e -> failwith e
  in
  let entry =
    match Cs_workloads.Suite.find bench with
    | Some e -> e
    | None -> failwith ("unknown benchmark " ^ bench)
  in
  { bench; scale; machine_name = machine; seed; machine = machine_v; entry }

let generate s =
  s.entry.Cs_workloads.Suite.generate ~scale:s.scale
    ~clusters:(Cs_machine.Machine.n_clusters s.machine) ()

(* Static facts of a scenario, learnt once at set-up. *)
type facts = { n_instrs : int; nt : int; weights_mb : float }

let facts s region =
  let ctx = Cs_core.Context.make ?seed:s.seed ~machine:s.machine region in
  let n = Cs_core.Context.n_instrs ctx and nc = Cs_core.Context.n_clusters ctx in
  { n_instrs = n; nt = ctx.Cs_core.Context.nt;
    weights_mb = float_of_int (n * nc * ctx.Cs_core.Context.nt * 8) /. 1e6 }

type result = {
  cycles : int;
  transfers : int;
  valid : (unit, string list) Stdlib.result;
  quarantined : int;
  n : int;
  wall : float;  (** seconds from generation to validation *)
  cpu : float;  (** CPU seconds of this process over the same interval *)
}

(* User plus system time of this process. The kernel does not charge it
   for time the hypervisor gave to other guests (steal), so on a shared
   host it is far steadier than wall time. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [probe] is a region of the same scenario, generated at set-up, for the
   context estimate; it is only used when the job is traced. *)
let run ?(spans = Spans.create ~enabled:false) ?(on = true) ?probe ~job s =
  let traced = spans.Spans.enabled && on in
  let span name f = Spans.time spans ~on ~job name f in
  let ctx_est =
    match probe with
    | Some region when traced ->
      let t0 = Spans.now () in
      ignore (Cs_core.Context.make ?seed:s.seed ~machine:s.machine region);
      let d = Spans.now () -. t0 in
      Spans.record spans ~parent:"" ~job "core.context.probe" t0 (t0 +. d);
      d
    | _ -> 0.0
  in
  let c0 = cpu_s () in
  let j0 = Spans.now () in
  let region = span "workloads.generate" (fun () -> generate s) in
  let passes = Cs_sim.Pipeline.default_passes ~machine:s.machine in
  let result =
    if not traced then Cs_core.Driver.run ?seed:s.seed ~machine:s.machine region passes
    else begin
      let d0 = Spans.now () in
      Spans.record spans ~parent:"core.driver" ~job "core.context" d0 (d0 +. ctx_est);
      let mark = ref (d0 +. ctx_est) in
      let observe name _ =
        let t = Spans.now () in
        Spans.record spans ~parent:"core.driver" ~job ("core.pass." ^ name) !mark t;
        mark := t
      in
      let r = Cs_core.Driver.run ?seed:s.seed ~observe ~machine:s.machine region passes in
      Spans.record spans ~job "core.driver" d0 (Spans.now ());
      r
    end
  in
  let analysis = result.Cs_core.Driver.context.Cs_core.Context.analysis in
  let priority =
    if Cs_machine.Machine.is_mesh s.machine then Cs_sched.Priority.alap analysis
    else Cs_sched.Priority.of_slots result.Cs_core.Driver.preferred_slot
  in
  let sched =
    span "sched.list" (fun () ->
        Cs_sched.List_scheduler.run ~machine:s.machine
          ~assignment:result.Cs_core.Driver.assignment ~priority ~analysis region)
  in
  let valid = span "sched.validate" (fun () -> Cs_sched.Validator.check sched) in
  let j1 = Spans.now () in
  let cpu = cpu_s () -. c0 in
  if traced then Spans.record spans ~parent:"" ~job "job" j0 j1;
  { wall = j1 -. j0;
    cpu;
    cycles = Cs_sched.Schedule.makespan sched;
    transfers = Cs_sched.Schedule.n_comms sched;
    valid;
    quarantined = List.length result.Cs_core.Driver.quarantined;
    n = Cs_ddg.Region.n_instrs region }

(* The reference: the library's own pipeline on the same scenario. *)
let reference s =
  let sched =
    Cs_sim.Pipeline.schedule ?seed:s.seed ~scheduler:Cs_sim.Pipeline.Convergent
      ~machine:s.machine (generate s)
  in
  (Cs_sched.Schedule.makespan sched, Cs_sched.Schedule.n_comms sched)

(* The paper's eleven passes, in the order the report lists them. *)
let pass_names =
  [ "INITTIME"; "NOISE"; "FIRST"; "PATH"; "COMM"; "PLACE"; "PLACEPROP"; "LOAD"; "LEVEL";
    "PATHPROP"; "EMPHCP" ]

(* Mean per-job layer times (ms) over the traced jobs [keep] accepts. *)
let layer_ms spans ~keep =
  let jobs =
    List.sort_uniq compare
      (List.filter_map
         (fun sp -> if sp.Spans.name = "job" && keep sp.Spans.job then Some sp.Spans.job else None)
         (Spans.spans spans))
  in
  let n = float_of_int (max 1 (List.length jobs)) in
  let keep j = List.mem j jobs in
  let ms name = 1000.0 *. Spans.total spans ~keep name /. n in
  let passes = List.map (fun p -> (p, ms ("core.pass." ^ p))) pass_names in
  let pass_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 passes in
  let context = ms "core.context" in
  let driver = ms "core.driver" in
  let self =
    [ ("workloads.generate_ms", ms "workloads.generate");
      ("core.context_ms", context);
      ("core.driver_self_ms", driver -. context -. pass_sum);
      ("sched.list_ms", ms "sched.list");
      ("sched.validate_ms", ms "sched.validate") ]
    @ List.map (fun (p, v) -> (Printf.sprintf "core.pass.%s_ms" p, v)) passes
  in
  (List.length jobs, ms "job", self)
