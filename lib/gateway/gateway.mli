(** The scheduling-fleet gateway: one front door over N [csched serve]
    shards.

    Speaks the same JSON-lines protocol as a single server, so existing
    clients ([csched submit], {!Cs_svc.Client}) point at the gateway
    unchanged. For every job request the gateway

    + resolves the job with {!Cs_svc.Job.resolve}, the shard's own
      resolver, refusing what does not resolve on the spot, and keys it
      with {!Cs_svc.Job.key} (the canonical scenario hash),
    + answers from a bounded LRU {!Cache} when the same scenario was
      already scheduled ([cached = true] on the reply, no shard hop),
    + otherwise walks the {!Policy}-ordered live shards and forwards
      over a one-shot connection; transport failure (connect refused,
      or the shard died before replying) replays the job on the next
      candidate — each client request is answered exactly once, and
      replay is safe because scheduling is a pure, deterministic
      computation;
    + feeds every outcome — replies, failures, probe results, push
      heartbeats — to one per-shard liveness state machine ({!Shard}),
      which alone decides whether a shard is up, warming or down;
    + feeds the load-aware policies from queue-depth gossip piggybacked
      on every shard reply, refreshed between jobs by a background
      prober that pings every shard each [probe_period_s] (the same
      probe re-admits down shards after their backoff);
    + warms re-admitted shards instead of dropping them straight into
      full traffic: the hottest cached scenarios are replayed to the
      shard as batch-class jobs, and for {!Shard.warmup_s} the shard
      serves only a linearly growing slice of the keyspace (it remains
      the fallback of last resort throughout).

    Control verbs ([ping] / [stats]) are answered inline by the gateway
    itself; the stats pong carries fleet-level counters (cache hits,
    replays, live shard count, admission watermark) in [extra]. *)

type config = {
  listen_addr : Cs_svc.Transport.addr;
  shards : Cs_svc.Transport.addr list;
  policy : Policy.t;
  cache_capacity : int;
  vnodes : int;
  forwarders : int;  (** concurrent forwarding workers *)
  queue_capacity : int;  (** gateway admission queue bound *)
  probe_period_s : float;
  fail_threshold : int;  (** consecutive failures that bury a shard *)
  shard_timeout_s : float;  (** per-read timeout on shard connections *)
  journal_dir : string option;
      (** durable job journal directory; [None] = no journaling *)
  recover : bool;
      (** load an existing journal at startup: replay unacked jobs and
          restore the dedup map. Without it an existing journal is
          discarded. *)
}

val config :
  ?policy:Policy.t ->
  ?cache_capacity:int ->
  ?vnodes:int ->
  ?forwarders:int ->
  ?queue_capacity:int ->
  ?probe_period_s:float ->
  ?fail_threshold:int ->
  ?shard_timeout_s:float ->
  ?journal_dir:string ->
  ?recover:bool ->
  shards:string list ->
  string ->
  config
(** [config ~shards listen]: addresses in {!Cs_svc.Transport.parse}
    grammar. Defaults: hash policy, 256-entry cache, 64 vnodes,
    4 forwarders, queue 64, 1 s probe period, threshold 3, 30 s shard
    timeout, no journal. Admission sheds past 0.85 of the queue scaled
    by the alive fraction of the fleet, or at 512 unanswered journaled
    jobs. Raises [Invalid_argument] on a bad address or an empty shard
    list. *)

type t

val create : config -> t
(** Binds the listen address (raises [Unix.Unix_error] if unusable). *)

val address : t -> Cs_svc.Transport.addr
(** Concrete bound address (resolves TCP port 0). *)

val run : t -> unit
(** Accept loop; returns after {!stop} once in-flight jobs are
    answered. *)

val stop : t -> unit
(** Graceful drain; idempotent, callable from any domain or signal
    handler. *)

type stats = {
  admitted : int;
  completed : int;  (** answered with a schedule (cache hits included) *)
  refused : int;  (** answered with a typed refusal *)
  shed : int;  (** shed by the gateway's own admission queue *)
  forwarded : int;  (** jobs answered by a shard *)
  replayed : int;  (** re-sends after a shard died with the job in flight *)
  rerouted : int;  (** re-sends after a shard shed the job (overloaded) *)
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  journal_hits : int;  (** retries answered from the durable journal *)
  journal_replays : int;  (** unacked jobs re-dispatched after recovery *)
  journal_pending : int;  (** journaled jobs currently in flight *)
  admission_shed : int;  (** sheds by the adaptive admission watermark *)
  heartbeats : int;  (** push heartbeats received from shards *)
  warm_replays : int;
      (** cache entries replayed to re-admitted shards for warm-up *)
}

val stats : t -> stats

val shard_states : t -> (string * Shard.phase) list
(** Liveness snapshot, in configuration order. *)

val server_stats : t -> Cs_svc.Proto.server_stats
(** The stats pong the gateway answers on the wire; fleet counters ride
    in [extra]. *)

val meters : t -> Cs_svc.Meters.t
(** The gateway's metrics registry (served by the [metrics] control
    verb): the shared job/latency families plus gateway-specific ones —
    per-shard [csched_gateway_forwarded_total] /
    [csched_gateway_shard_failures_total], replay/reroute counters,
    cache hit/miss/eviction counters, per-shard depth and EWMA gauges,
    [csched_shard_state{shard}] (0 up, 1 warming, 2 down) and
    [csched_shard_transitions_total{shard,to}]. *)
