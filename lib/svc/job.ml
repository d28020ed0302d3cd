type t = {
  request : Proto.request;
  arrival : float;
  deadline : float option;
}

let admit ?default_deadline_ms (request : Proto.request) =
  let arrival = Cs_obs.Clock.now () in
  let budget_ms =
    match request.deadline_ms with Some d -> Some d | None -> default_deadline_ms
  in
  let deadline = Option.map (fun ms -> arrival +. (ms /. 1000.0)) budget_ms in
  { request; arrival; deadline }

let ( let* ) = Result.bind

type resolved = {
  machine : Cs_machine.Machine.t;
  region : Cs_ddg.Region.t;
  scheduler : Cs_sim.Pipeline.scheduler;
  passes : Cs_core.Pass.t list option;
  spec : string;
}

let invalid_input r = Result.map_error (fun e -> Cs_resil.Error.Invalid_input e) r

(* Resolve the request's named pieces against the registries and
   generate its region. All failures come back as typed
   [Invalid_input] so the service replies with a refusal instead of
   tearing down the worker. *)
let resolve (r : Proto.request) =
  let* machine = invalid_input (Cs_machine.Target.of_name r.machine) in
  let* entry =
    match Cs_workloads.Suite.find r.bench with
    | Some e -> Ok e
    | None -> invalid_input (Error (Printf.sprintf "unknown benchmark %S" r.bench))
  in
  let* scheduler =
    match Cs_sim.Pipeline.scheduler_of_name r.scheduler with
    | Some s -> Ok s
    | None -> invalid_input (Error (Printf.sprintf "unknown scheduler %S" r.scheduler))
  in
  let* passes =
    match r.passes with
    | None -> Ok None
    | Some spec ->
      invalid_input
        (Result.map Option.some (Cs_core.Sequence.of_names (String.split_on_char ',' spec)))
  in
  let region =
    entry.Cs_workloads.Suite.generate ~scale:r.scale
      ~clusters:(Cs_machine.Machine.n_clusters machine) ()
  in
  (* The key's spec text is part of every journal and cache key
     already on disk: it must never change. *)
  let spec =
    Printf.sprintf "scheduler %s passes %s seed %s" r.scheduler
      (Option.value ~default:"default" r.passes)
      (match r.seed with Some s -> string_of_int s | None -> "-")
  in
  Ok { machine; region; scheduler; passes; spec }

let key { machine; region; spec; _ } =
  Cs_core.Scenario.hex (Cs_core.Scenario.canonical_hash ~spec ~machine region)

let run ?retry_policy ?extra_passes ?pass_budget_s job =
  let r = job.request in
  let t0 = Cs_obs.Clock.now () in
  let elapsed_ms () = (Cs_obs.Clock.now () -. t0) *. 1000.0 in
  let refuse err = Proto.refused ~elapsed_ms:(elapsed_ms ()) ~id:r.id err in
  let expired () =
    match job.deadline with Some d -> Cs_obs.Clock.now () >= d | None -> false
  in
  (* A job whose deadline already expired while queued gets the typed
     refusal up front: running it cannot possibly satisfy the caller,
     and the worker's time belongs to jobs that can still make it. *)
  if expired () then
    refuse
      (Cs_resil.Error.Deadline_exceeded
         (Printf.sprintf "deadline expired %.1f ms before the job was dequeued"
            ((Cs_obs.Clock.now () -. Option.get job.deadline) *. 1000.0)))
  else
    match resolve r with
    | Error err -> refuse err
    | Ok { machine; region; scheduler; passes; _ } ->
      let passes =
        (* Injected chaos (e.g. a slow pass for SLO drills) applies only
           to convergent sequences — the other schedulers have no pass
           pipeline to perturb. *)
        match (extra_passes, scheduler) with
        | Some extra, Cs_sim.Pipeline.Convergent ->
          let base =
            match passes with
            | Some ps -> ps
            | None -> Cs_sim.Pipeline.default_passes ~machine
          in
          Some (base @ extra)
        | _ -> passes
      in
      let attempt ~attempt:_ =
        Cs_sim.Pipeline.schedule_resilient ?seed:r.seed ?passes
          ?deadline:job.deadline ?pass_budget_s ~scheduler ~machine region
      in
      let result =
        match retry_policy with
        | None -> attempt ~attempt:1
        | Some policy ->
          (* Retrying past the deadline would answer late; stop as soon
             as the budget is gone even if attempts remain. *)
          Retry.run ~policy
            ~retryable:(fun e -> Retry.transient e && not (expired ()))
            attempt
      in
      (match result with
      | Error err -> refuse err
      | Ok (sched, outcome) ->
        Proto.reply ~id:r.id ~elapsed_ms:(elapsed_ms ())
          (Proto.Scheduled
             { cycles = Cs_sched.Schedule.makespan sched;
               transfers = Cs_sched.Schedule.n_comms sched;
               rung = Cs_resil.Outcome.rung_to_string outcome.Cs_resil.Outcome.rung;
               timed_out = outcome.Cs_resil.Outcome.timed_out;
               quarantined = List.length outcome.Cs_resil.Outcome.quarantined }))
