(** One admitted service job: a parsed request stamped with its arrival
    time and absolute deadline. Shared by the socket server and the SLO
    benchmark, which runs jobs in-process. *)

type t = {
  request : Proto.request;
  arrival : float;  (** {!Cs_obs.Clock} time of admission *)
  deadline : float option;  (** absolute; [arrival + deadline_ms] *)
}

val admit : ?default_deadline_ms:float -> Proto.request -> t
(** Stamp a request at the current clock. The request's own
    [deadline_ms] wins over [default_deadline_ms]. *)

(** A request resolved against the registries: what the shard schedules
    and what the gateway keys on. *)
type resolved = {
  machine : Cs_machine.Machine.t;  (** parsed by {!Cs_machine.Target.of_name} *)
  region : Cs_ddg.Region.t;  (** the benchmark generated for [machine] *)
  scheduler : Cs_sim.Pipeline.scheduler;
  passes : Cs_core.Pass.t list option;  (** [None]: the machine's default *)
  spec : string;  (** scheduler, raw pass text and seed, as hashed by {!key} *)
}

val resolve : Proto.request -> (resolved, Cs_resil.Error.t) result
(** The one request resolver, shared by {!run} and the gateway. An
    unknown benchmark, machine or scheduler, or a malformed pass spec,
    is an [Invalid_input] error. *)

val key : resolved -> string
(** The canonical scenario key: hex {!Cs_core.Scenario.canonical_hash}
    of the resolved region on the resolved machine, with [spec] as the
    spec text. Machine aliases ([raw16] and [raw-4x4]) share a key; the
    request's id, deadline and trace fields do not enter it. The gateway
    caches and journals under this key, so its value for a given request
    must never change. *)

val run :
  ?retry_policy:Retry.policy ->
  ?extra_passes:Cs_core.Pass.t list ->
  ?pass_budget_s:float ->
  t ->
  Proto.reply
(** Execute the job end to end and always produce a reply:

    - a deadline that expired while the job sat in the queue refuses
      immediately with [Deadline_exceeded] (running it cannot help);
    - a request {!resolve} rejects refuses with [Invalid_input];
    - otherwise {!Cs_sim.Pipeline.schedule_resilient} runs with the
      job's absolute deadline, optionally wrapped in {!Retry.run}
      (transient errors only, and never once the deadline has expired);
    - [extra_passes] are appended to convergent sequences — the serve
      command uses this to inject a CHAOS slow pass for SLO drills.

    Never raises on classifiable scheduler failures. *)
