(** One differential-fuzzing test case: a scheduling region, a target
    machine, and the scheduler configuration to run on it. Scenarios are
    deterministic values — {!Gen} derives them from a seed, {!Oracle}
    judges them, {!Shrink} minimizes them, and {!Repro} serializes them
    into the regression corpus. *)

type spec =
  | Baseline of Cs_sim.Pipeline.scheduler
      (** a whole pipeline, including [Convergent] with the machine's
          Table 1 default sequence *)
  | Passes of Cs_core.Pass.t list
      (** the convergent scheduler with an explicit (possibly evolved or
          randomized) pass sequence *)

type t = {
  label : string;  (** human-readable shape/provenance tag, e.g. ["thin"] *)
  seed : int;  (** the generator seed this case was derived from *)
  machine : Cs_machine.Machine.t;  (** the healthy machine *)
  faults : Cs_resil.Fault.plan;
      (** fault plan applied before scheduling; [[]] for a healthy run *)
  region : Cs_ddg.Region.t;
  spec : spec;
}

val scheduling_machine : t -> Cs_machine.Machine.t
(** [machine] degraded by [faults] — what the scheduler actually
    targets. Identical to [machine] when the plan is empty. *)

val spec_to_string : spec -> string
(** [baseline:<name>] or [passes:<SPEC,...>] — round-trips through
    {!spec_of_string}, parameters included. *)

val spec_of_string : string -> (spec, string) result

val pp : Format.formatter -> t -> unit
