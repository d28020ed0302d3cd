(** Shard liveness: one state machine per shard decides whether it gets
    traffic.

    Every liveness signal the gateway has — job replies, transport
    failures, overload refusals, probe results and push heartbeats — is
    an event fed to one pure transition function, {!step}. Dispatch,
    the alive count, the admission watermark and the metrics all read
    the resulting state, so they cannot disagree.

    {v
    state    event                          next        actions
    -------  -----------------------------  ----------  ---------------------
    Up       reply, failure, probe, hb      Up          outcome recorded
    Up       ... and the window trips       Down 1      became down
    Up       tick, heartbeat stale          Up          probe
    Warming  reply ok, probe ok, hb         Warming     outcome recorded
    Warming  slow reply, failure, bad probe Down a+1    became down
    Warming  any event, ramp over           Up          became up
    Down a   tick, backoff over, slot free  Down a (p)  probe
    Down a   probe ok (slot holder)         Warming a   became warming, warm up
    Down a   heartbeat, backoff over        Warming a   became warming, warm up
    Down a   probe failed (slot holder)     Down a+1    became down
    any      overload refusal               same        —
    Down     replies, failures, stale probe same        — (stragglers)
    v}

    The window trips on either criterion: [fail_threshold] consecutive
    failures, or a failure rate of at least 0.5 over at least
    {!min_calls} of the last {!window} calls. A failure is a transport
    failure, a failed probe, or a reply slower than {!slow_ms}; only
    job calls enter the rate window, while probes and heartbeats only
    extend or reset the consecutive count. Every burial waits one step
    of a single capped {!Cs_svc.Retry.delays} schedule before the next
    probe, so two identically configured gateways back off
    identically. *)

type phase =
  | Up
  | Warming of { since : float; attempt : int }
      (** re-admitted at [since]; serves a linearly growing slice of
          the keyspace for {!warmup_s}. [attempt] is the burial it
          recovered from: a failure now re-buries one step deeper. *)
  | Down of { attempt : int; retry_at : float; probing : bool }
      (** buried for the [attempt]th time; no traffic. The one
          probation slot opens at [retry_at]; [probing] = taken. *)

type state = {
  phase : phase;
  streak : int;  (** consecutive failures *)
  calls : int;  (** job calls in the window, at most {!window} *)
  window : int;  (** the last [calls] call outcomes, newest in bit 0; 1 = failed *)
  last_hb : float;  (** time of the last heartbeat; [neg_infinity] = none *)
}

type event =
  | Reply of float  (** a job answered, with its elapsed ms *)
  | Transport_failure  (** connect refused, timeout, or EOF before the reply *)
  | Overloaded  (** the shard shed the job: alive, just full — neutral *)
  | Probe_result of bool
  | Heartbeat
  | Tick  (** the prober's periodic visit *)

type action =
  | Became of phase  (** the shard changed phase *)
  | Warm_up  (** replay hot cache entries to the re-admitted shard *)
  | Probe  (** ping the shard now and feed back a {!Probe_result} *)

val window : int
(** 32 call outcomes. *)

val min_calls : int
(** 8: the failure rate is judged only over at least this many calls. *)

val slow_ms : float
(** 30 000: a reply slower than this counts as a failure. *)

val warmup_s : float
(** 5 s admission ramp after re-admission. *)

val max_delay_s : float
(** 10 s: no backoff step is longer, so a returning shard is re-probed
    within this bound however deep its burial. *)

val warm_entries : int
(** 16 hottest cache entries replayed to a re-admitted shard. *)

type settings

val settings : ?fail_threshold:int -> ?probe_period_s:float -> unit -> settings
(** [fail_threshold] (default 3) consecutive failures bury a shard. A
    heartbeat younger than two [probe_period_s] (default 1 s) makes the
    periodic probe unnecessary. Raises [Invalid_argument] on a
    non-positive threshold. *)

val delay : settings -> int -> float
(** Backoff before the probe after the [attempt]th burial: 500 ms
    base, doubling, ±25% deterministic jitter, capped at
    {!max_delay_s}; deeper attempts repeat the last step. *)

val initial : state
(** [Up], empty window, no heartbeat yet. *)

val step : settings -> now:float -> state -> event -> state * action list
(** The transition table. Pure: same inputs, same outputs. A ramp that
    ended before [now] is first promoted to [Up] (reported as
    [Became Up]). *)

val level : phase -> int
(** 0 up, 1 warming, 2 down — the [csched_shard_state] gauge value. *)

val name : phase -> string
(** ["up" | "warming" | "down"] — the [to] label of
    [csched_shard_transitions_total]. *)

val admits : now:float -> state -> key:int64 -> bool
(** Whether the shard takes this scenario first-hand right now. An up
    shard takes every key, a down one none; a warming shard takes a
    slice that grows linearly over {!warmup_s}, so each key flips from
    "elsewhere" to "this shard" exactly once during a ramp. *)

(** {2 The shared table}

    One state per shard behind one mutex; the clock is injected. *)

type t

val create :
  ?clock:(unit -> float) -> ?fail_threshold:int -> ?probe_period_s:float ->
  string list -> t
(** [clock] defaults to {!Cs_obs.Clock.now}. Unknown names read as
    {!initial}. *)

val feed : t -> string -> event -> action list
(** Step one shard under the lock. The caller performs the actions. *)

val phase : t -> string -> phase
(** The phase now (a finished ramp reads [Up]). *)

val alive : t -> string list -> string list
(** The dispatchable subset — [Up] or [Warming] — in the given order. *)

val route : t -> key:int64 -> string list -> string list
(** The dispatch order for one scenario: the {!alive} subset of the
    given order, shards that {!admits} the key first, then warming
    shards outside their slice as the last resort. *)
