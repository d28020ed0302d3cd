(* Gateway fleet tests: consistent-hash rebalance bounds, LRU cache
   accounting, the shard liveness state machine, dispatch policies, canonical
   scenario hashing (collision sweep + round-trip stability + repro
   fingerprint), and an in-process gateway + 2 shards over loopback TCP
   with a mid-batch shard kill — zero lost, zero duplicated jobs. *)

module Ring = Cs_gateway.Ring
module Cache = Cs_gateway.Cache
module Shard = Cs_gateway.Shard
module Policy = Cs_gateway.Policy
module Journal = Cs_gateway.Journal
module Gateway = Cs_gateway.Gateway
module Proto = Cs_svc.Proto
module Transport = Cs_svc.Transport

(* --- consistent-hash ring ------------------------------------------ *)

let key_of i = Cs_core.Scenario.fnv1a (Printf.sprintf "key-%d" i)

let test_ring_route_stable () =
  let ring = Ring.make [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check (list string)) "shards" [ "a"; "b"; "c"; "d" ] (Ring.shards ring);
  for i = 0 to 99 do
    let k = key_of i in
    (match Ring.candidates ring k with
    | first :: rest ->
      Alcotest.(check (option string)) "route = first candidate" (Some first)
        (Ring.route ring k);
      Alcotest.(check int) "candidates cover every shard" 3 (List.length rest)
    | [] -> Alcotest.fail "no candidates");
    Alcotest.(check (option string)) "routing is deterministic"
      (Ring.route ring k) (Ring.route ring k)
  done

let test_ring_rebalance_bound () =
  let n_keys = 2000 in
  let shards = [ "a"; "b"; "c"; "d" ] in
  let ring = Ring.make shards in
  let before = Array.init n_keys (fun i -> Option.get (Ring.route ring (key_of i))) in
  let removed = "c" in
  let ring' = Ring.remove ring removed in
  let moved = ref 0 and owned = ref 0 in
  Array.iteri
    (fun i owner ->
      let owner' = Option.get (Ring.route ring' (key_of i)) in
      if owner = removed then begin
        incr owned;
        Alcotest.(check bool) "moved key lands on a survivor" true (owner' <> removed)
      end
      else
        (* the defining property: only the dead shard's keys move *)
        Alcotest.(check string) "surviving keys keep their shard" owner owner';
      if owner' <> owner then incr moved)
    before;
  Alcotest.(check int) "exactly the dead shard's keys move" !owned !moved;
  let share = float_of_int !moved /. float_of_int n_keys in
  Alcotest.(check bool)
    (Printf.sprintf "moved share %.3f within 2x of K/N" share)
    true
    (share > 0.05 && share < 2.0 /. float_of_int (List.length shards))

(* --- LRU cache ----------------------------------------------------- *)

let test_cache_lru_accounting () =
  let c = Cache.create ~capacity:2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  Cache.put c "c" 3;
  (* "b" was least recently used ("a" was promoted by the hit) *)
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 3 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size

(* --- shard liveness state machine ---------------------------------- *)

let settings = Shard.settings ~fail_threshold:3 ~probe_period_s:1.0 ()

let describe_phase = function
  | Shard.Up -> "up"
  | Shard.Warming { attempt; _ } -> Printf.sprintf "warming %d" attempt
  | Shard.Down { attempt; probing; _ } ->
    Printf.sprintf "down %d%s" attempt (if probing then " probing" else "")

let describe_action = function
  | Shard.Became p -> "became " ^ Shard.name p
  | Shard.Warm_up -> "warm-up"
  | Shard.Probe -> "probe"

let up = Shard.initial
let up_streak n = { up with Shard.streak = n }
let up_fresh_hb = { up with Shard.last_hb = 100.5 }
let warming = { up with Shard.phase = Shard.Warming { since = 100.0; attempt = 2 } }

let down ~probing =
  { up with Shard.phase = Shard.Down { attempt = 2; retry_at = 100.0; probing } }

let slow = Shard.Reply (Shard.slow_ms +. 1.0)

(* Every state x event pair, as (row, state, now, event, next phase,
   actions). The clock reads 101 unless a row says otherwise: past the
   down rows' retry_at (100), one second into the warming rows' ramp. *)
let table_rows =
  let open Shard in
  [ ("up: reply", up, 101.0, Reply 5.0, "up", []);
    ("up: slow reply", up, 101.0, slow, "up", []);
    ("up: transport failure", up, 101.0, Transport_failure, "up", []);
    ("up: overloaded", up, 101.0, Overloaded, "up", []);
    ("up: probe ok", up, 101.0, Probe_result true, "up", []);
    ("up: probe failed", up, 101.0, Probe_result false, "up", []);
    ("up: heartbeat", up, 101.0, Heartbeat, "up", []);
    ("up: tick, no heartbeat", up, 101.0, Tick, "up", [ "probe" ]);
    ("up: tick, fresh heartbeat", up_fresh_hb, 101.0, Tick, "up", []);
    ("up: tick, stale heartbeat", up_fresh_hb, 103.0, Tick, "up", [ "probe" ]);
    ("up@2: reply resets", up_streak 2, 101.0, Reply 5.0, "up", []);
    ("up@2: slow reply trips", up_streak 2, 101.0, slow, "down 1", [ "became down" ]);
    ("up@2: transport failure trips", up_streak 2, 101.0, Transport_failure, "down 1",
     [ "became down" ]);
    ("up@2: overloaded neutral", up_streak 2, 101.0, Overloaded, "up", []);
    ("up@2: failed probe trips", up_streak 2, 101.0, Probe_result false, "down 1",
     [ "became down" ]);
    ("up@2: heartbeat resets", up_streak 2, 101.0, Heartbeat, "up", []);
    ("warming: reply", warming, 101.0, Reply 5.0, "warming 2", []);
    ("warming: slow reply", warming, 101.0, slow, "down 3", [ "became down" ]);
    ("warming: transport failure", warming, 101.0, Transport_failure, "down 3",
     [ "became down" ]);
    ("warming: overloaded", warming, 101.0, Overloaded, "warming 2", []);
    ("warming: probe ok", warming, 101.0, Probe_result true, "warming 2", []);
    ("warming: probe failed", warming, 101.0, Probe_result false, "down 3",
     [ "became down" ]);
    ("warming: heartbeat", warming, 101.0, Heartbeat, "warming 2", []);
    ("warming: tick", warming, 101.0, Tick, "warming 2", [ "probe" ]);
    ("warming: ramp over", warming, 100.0 +. warmup_s, Tick, "up",
     [ "became up"; "probe" ]);
    ("down: reply", down ~probing:false, 101.0, Reply 5.0, "down 2", []);
    ("down: slow reply", down ~probing:false, 101.0, slow, "down 2", []);
    ("down: transport failure", down ~probing:false, 101.0, Transport_failure,
     "down 2", []);
    ("down: overloaded", down ~probing:false, 101.0, Overloaded, "down 2", []);
    ("down: stale probe ok", down ~probing:false, 101.0, Probe_result true, "down 2",
     []);
    ("down: stale probe failed", down ~probing:false, 101.0, Probe_result false,
     "down 2", []);
    ("down: heartbeat in backoff", down ~probing:false, 99.0, Heartbeat, "down 2", []);
    ("down: heartbeat after backoff", down ~probing:false, 101.0, Heartbeat,
     "warming 2", [ "became warming"; "warm-up" ]);
    ("down: tick in backoff", down ~probing:false, 99.0, Tick, "down 2", []);
    ("down: tick after backoff", down ~probing:false, 101.0, Tick, "down 2 probing",
     [ "probe" ]);
    ("probing: tick", down ~probing:true, 101.0, Tick, "down 2 probing", []);
    ("probing: probe ok", down ~probing:true, 101.0, Probe_result true, "warming 2",
     [ "became warming"; "warm-up" ]);
    ("probing: probe failed", down ~probing:true, 101.0, Probe_result false,
     "down 3", [ "became down" ]);
    ("probing: reply", down ~probing:true, 101.0, Reply 5.0, "down 2 probing", []);
    ("probing: transport failure", down ~probing:true, 101.0, Transport_failure,
     "down 2 probing", []);
    ("probing: overloaded", down ~probing:true, 101.0, Overloaded, "down 2 probing",
     []);
    ("probing: heartbeat", down ~probing:true, 101.0, Heartbeat, "warming 2",
     [ "became warming"; "warm-up" ]) ]

let test_shard_transition_table () =
  List.iter
    (fun (row, st, now, ev, next, actions) ->
      let st', acts = Shard.step settings ~now st ev in
      Alcotest.(check string) (row ^ ": next state") next (describe_phase st'.Shard.phase);
      Alcotest.(check (list string)) (row ^ ": actions") actions
        (List.map describe_action acts))
    table_rows

(* A shard table on a fake clock. *)
let fake_clock () =
  let now = ref 1000.0 in
  (now, fun () -> !now)

let phase_of t name = describe_phase (Shard.phase t name)
let actions_of acts = List.map describe_action acts

let retry_at t name =
  match Shard.phase t name with
  | Shard.Down { retry_at; _ } -> retry_at
  | p -> Alcotest.failf "%s should be down, is %s" name (describe_phase p)

let test_shard_evict_and_readmit () =
  let now, clock = fake_clock () in
  let t = Shard.create ~clock ~fail_threshold:2 [ "s1"; "s2" ] in
  ignore (Shard.feed t "s1" Shard.Transport_failure);
  Alcotest.(check string) "one failure: still up" "up" (phase_of t "s1");
  Alcotest.(check (list string)) "suspect still alive" [ "s1"; "s2" ]
    (Shard.alive t [ "s1"; "s2" ]);
  Alcotest.(check (list string)) "threshold evicts" [ "became down" ]
    (actions_of (Shard.feed t "s1" Shard.Transport_failure));
  Alcotest.(check (list string)) "down not alive" [ "s2" ] (Shard.alive t [ "s1"; "s2" ]);
  Alcotest.(check (list string)) "no probe before backoff" []
    (actions_of (Shard.feed t "s1" Shard.Tick));
  now := retry_at t "s1";
  Alcotest.(check (list string)) "probe due after backoff" [ "probe" ]
    (actions_of (Shard.feed t "s1" Shard.Tick));
  Alcotest.(check (list string)) "probation slot handed out once" []
    (actions_of (Shard.feed t "s1" Shard.Tick));
  ignore (Shard.feed t "s1" (Shard.Probe_result false));
  Alcotest.(check string) "failed probe takes the next step" "down 2" (phase_of t "s1");
  Alcotest.(check (float 1e-9)) "second step of the schedule"
    (!now +. Shard.delay settings 2) (retry_at t "s1");
  now := retry_at t "s1";
  Alcotest.(check (list string)) "second probe due" [ "probe" ]
    (actions_of (Shard.feed t "s1" Shard.Tick));
  Alcotest.(check (list string)) "good probe re-admits, warming up"
    [ "became warming"; "warm-up" ]
    (actions_of (Shard.feed t "s1" (Shard.Probe_result true)));
  Alcotest.(check (list string)) "re-admitted" [ "s1"; "s2" ] (Shard.alive t [ "s1"; "s2" ]);
  Alcotest.(check string) "unknown shards read up" "up" (phase_of t "s3")

let test_shard_backoff_capped () =
  let now, clock = fake_clock () in
  let t = Shard.create ~clock ~fail_threshold:1 [ "s1" ] in
  ignore (Shard.feed t "s1" Shard.Transport_failure);
  let longest = ref 0.0 in
  for burial = 1 to 10 do
    Alcotest.(check string) "attempt advances" (Printf.sprintf "down %d" burial)
      (phase_of t "s1");
    let delay = retry_at t "s1" -. !now in
    longest := Float.max !longest delay;
    Alcotest.(check bool)
      (Printf.sprintf "burial %d delay %.3fs within the cap" burial delay)
      true
      (delay > 0.0 && Shard.delay settings burial <= Shard.max_delay_s
      && delay <= Shard.max_delay_s +. 1e-9);
    now := retry_at t "s1";
    Alcotest.(check (list string))
      (Printf.sprintf "probe due at the cap after burial %d" burial)
      [ "probe" ]
      (actions_of (Shard.feed t "s1" Shard.Tick));
    ignore (Shard.feed t "s1" (Shard.Probe_result false))
  done;
  Alcotest.(check bool) "the doubling schedule reached the cap" true
    (!longest > Shard.max_delay_s /. 2.0)

let test_shard_trips_on_failure_rate () =
  let now, clock = fake_clock () in
  let t = Shard.create ~clock ~fail_threshold:3 [ "s1"; "s2" ] in
  (* alternating outcomes never string two failures together, so only
     the rate criterion can trip, and only once min_calls are in *)
  for i = 1 to Shard.min_calls - 1 do
    let ev = if i mod 2 = 0 then Shard.Transport_failure else Shard.Reply 5.0 in
    Alcotest.(check (list string)) (Printf.sprintf "call %d below min_calls" i) []
      (actions_of (Shard.feed t "s1" ev))
  done;
  Alcotest.(check (list string)) "trips at min_calls with rate 0.5" [ "became down" ]
    (actions_of (Shard.feed t "s1" Shard.Transport_failure));
  Alcotest.(check (list string)) "rate-tripped shard leaves alive" [ "s2" ]
    (Shard.alive t [ "s1"; "s2" ]);
  Alcotest.(check string) "other shard unaffected" "up" (phase_of t "s2");
  (* the backoff then grants exactly one probe, and a good one
     re-admits through the warm-up ramp *)
  now := retry_at t "s1";
  Alcotest.(check (list string)) "backoff grants a probe" [ "probe" ]
    (actions_of (Shard.feed t "s1" Shard.Tick));
  ignore (Shard.feed t "s1" (Shard.Probe_result true));
  Alcotest.(check string) "good probe re-admits" "warming 1" (phase_of t "s1");
  now := !now +. Shard.warmup_s;
  Alcotest.(check string) "ramp over reads up" "up" (phase_of t "s1");
  Alcotest.(check (list string)) "next event records the promotion" [ "became up" ]
    (actions_of (Shard.feed t "s1" (Shard.Reply 5.0)))

let test_shard_slow_calls_and_failed_probe () =
  let now, clock = fake_clock () in
  (* a threshold out of reach: only the rate can trip *)
  let t = Shard.create ~clock ~fail_threshold:100 [ "s1" ] in
  for _ = 1 to Shard.min_calls - 1 do
    ignore (Shard.feed t "s1" (Shard.Reply (Shard.slow_ms +. 1.0)))
  done;
  Alcotest.(check string) "below min_calls stays up" "up" (phase_of t "s1");
  Alcotest.(check (list string)) "slow calls count as failures" [ "became down" ]
    (actions_of (Shard.feed t "s1" (Shard.Reply (Shard.slow_ms +. 1.0))));
  now := retry_at t "s1";
  Alcotest.(check (list string)) "probe granted" [ "probe" ]
    (actions_of (Shard.feed t "s1" Shard.Tick));
  ignore (Shard.feed t "s1" (Shard.Probe_result false));
  Alcotest.(check string) "failed probe re-buries" "down 2" (phase_of t "s1");
  Alcotest.(check (list string)) "re-buried is not alive" [] (Shard.alive t [ "s1" ])

let test_shard_warmup_ramp () =
  let keys = List.init 2000 key_of in
  let st = { Shard.initial with phase = Shard.Warming { since = 0.0; attempt = 1 } } in
  let steps = List.init 41 (fun i -> float_of_int i *. Shard.warmup_s /. 40.0) in
  let admitted now = List.length (List.filter (fun key -> Shard.admits ~now st ~key) keys) in
  Alcotest.(check int) "nothing admitted at re-admission" 0 (admitted 0.0);
  let mid = admitted (Shard.warmup_s /. 2.0) in
  Alcotest.(check bool)
    (Printf.sprintf "half-way the slice is about half (%d/2000)" mid)
    true
    (mid > 800 && mid < 1200);
  Alcotest.(check int) "everything admitted once the ramp is over" 2000
    (admitted Shard.warmup_s);
  (* per key: out ... out in ... in — the slice only grows, and each
     key flips to the warming shard exactly once *)
  List.iter
    (fun key ->
      let trail = List.map (fun now -> Shard.admits ~now st ~key) steps in
      let flips, _ =
        List.fold_left
          (fun (n, prev) b ->
            if prev && not b then Alcotest.fail "a key left the slice";
            ((if b && not prev then n + 1 else n), b))
          (0, false) trail
      in
      Alcotest.(check int) "flips to the warming shard exactly once" 1 flips)
    keys;
  (* through the table: outside its slice the warming shard goes last *)
  let now, clock = fake_clock () in
  let t = Shard.create ~clock ~fail_threshold:1 [ "w"; "u" ] in
  ignore (Shard.feed t "w" Shard.Transport_failure);
  now := retry_at t "w";
  let since = !now in
  ignore (Shard.feed t "w" Shard.Heartbeat);
  now := since +. (Shard.warmup_s /. 2.0);
  let st = { st with phase = Shard.Warming { since; attempt = 1 } } in
  List.iter
    (fun key ->
      Alcotest.(check (list string)) "ramp order"
        (if Shard.admits ~now:!now st ~key then [ "w"; "u" ] else [ "u"; "w" ])
        (Shard.route t ~key [ "w"; "u" ]))
    (List.filteri (fun i _ -> i < 200) keys)

let test_shard_heartbeat_readmission () =
  let now, clock = fake_clock () in
  let t = Shard.create ~clock ~fail_threshold:1 ~probe_period_s:1.0 [ "s1" ] in
  ignore (Shard.feed t "s1" Shard.Heartbeat);
  Alcotest.(check (list string)) "fresh heartbeat spares the probe" []
    (actions_of (Shard.feed t "s1" Shard.Tick));
  now := !now +. 2.0;
  Alcotest.(check (list string)) "stale heartbeat: probe again" [ "probe" ]
    (actions_of (Shard.feed t "s1" Shard.Tick));
  ignore (Shard.feed t "s1" Shard.Transport_failure);
  Alcotest.(check (list string)) "heartbeat inside the backoff is noted only" []
    (actions_of (Shard.feed t "s1" Shard.Heartbeat));
  Alcotest.(check string) "still down" "down 1" (phase_of t "s1");
  now := retry_at t "s1";
  Alcotest.(check (list string)) "heartbeat after the backoff re-admits"
    [ "became warming"; "warm-up" ]
    (actions_of (Shard.feed t "s1" Shard.Heartbeat));
  Alcotest.(check (list string)) "re-admitted shard is alive" [ "s1" ]
    (Shard.alive t [ "s1" ]);
  now := !now +. Shard.warmup_s;
  Alcotest.(check string) "ramp completes" "up" (phase_of t "s1")

(* The model: a second, list-based reading of the table in shard.mli,
   stepped in lockstep with Shard.step over random traces. *)
type model = {
  m_phase : string;  (* "up" | "warming" | "down" *)
  m_attempt : int;
  m_since : float;
  m_retry_at : float;
  m_probing : bool;
  m_streak : int;
  m_calls : bool list;  (* newest first, true = failed *)
  m_last_hb : float;
}

let model_initial =
  { m_phase = "up"; m_attempt = 0; m_since = 0.0; m_retry_at = 0.0; m_probing = false;
    m_streak = 0; m_calls = []; m_last_hb = neg_infinity }

let model_step m ~now ev =
  let promoted = m.m_phase = "warming" && now -. m.m_since >= Shard.warmup_s in
  let m = if promoted then { m with m_phase = "up" } else m in
  let fresh m = { m with m_streak = 0; m_calls = [] } in
  let bury m attempt =
    ( { (fresh m) with
        m_phase = "down"; m_attempt = attempt; m_probing = false;
        m_retry_at = now +. Shard.delay settings attempt },
      [ "became down" ] )
  in
  let readmit m =
    ( { (fresh m) with m_phase = "warming"; m_since = now },
      [ "became warming"; "warm-up" ] )
  in
  let outcome m ~call ~failed =
    let m = { m with m_streak = (if failed then m.m_streak + 1 else 0) } in
    let m =
      if call then
        { m with m_calls = List.filteri (fun i _ -> i < Shard.window) (failed :: m.m_calls) }
      else m
    in
    let n = List.length m.m_calls in
    let fails = List.length (List.filter Fun.id m.m_calls) in
    let tripped = m.m_streak >= 3 || (n >= Shard.min_calls && 2 * fails >= n) in
    if m.m_phase = "warming" && failed then bury m (m.m_attempt + 1)
    else if m.m_phase = "up" && tripped then bury m 1
    else (m, [])
  in
  let m, acts =
    match (m.m_phase, ev) with
    | _, Shard.Overloaded -> (m, [])
    | "down", (Shard.Reply _ | Shard.Transport_failure) -> (m, [])
    | "down", Shard.Probe_result ok ->
      if not m.m_probing then (m, [])
      else if ok then readmit m
      else bury m (m.m_attempt + 1)
    | "down", Shard.Heartbeat ->
      let m = { m with m_last_hb = now } in
      if now >= m.m_retry_at then readmit m else (m, [])
    | "down", Shard.Tick ->
      if (not m.m_probing) && now >= m.m_retry_at then
        ({ m with m_probing = true }, [ "probe" ])
      else (m, [])
    | _, Shard.Reply ms -> outcome m ~call:true ~failed:(ms > Shard.slow_ms)
    | _, Shard.Transport_failure -> outcome m ~call:true ~failed:true
    | _, Shard.Probe_result ok -> outcome m ~call:false ~failed:(not ok)
    | _, Shard.Heartbeat -> outcome { m with m_last_hb = now } ~call:false ~failed:false
    | _, Shard.Tick -> (m, if now -. m.m_last_hb < 2.0 then [] else [ "probe" ])
  in
  (m, (if promoted then [ "became up" ] else []) @ acts)

let describe_model m =
  match m.m_phase with
  | "up" -> "up"
  | "warming" -> Printf.sprintf "warming %d" m.m_attempt
  | _ -> Printf.sprintf "down %d%s" m.m_attempt (if m.m_probing then " probing" else "")

let event_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun ms -> Shard.Reply ms) (oneofl [ 1.0; 40.0; Shard.slow_ms +. 1.0 ]));
        (3, return Shard.Transport_failure);
        (1, return Shard.Overloaded);
        (2, map (fun ok -> Shard.Probe_result ok) bool);
        (2, return Shard.Heartbeat);
        (3, return Shard.Tick) ])

let print_event = function
  | Shard.Reply ms -> Printf.sprintf "reply %.0f" ms
  | Shard.Transport_failure -> "failure"
  | Shard.Overloaded -> "overloaded"
  | Shard.Probe_result ok -> Printf.sprintf "probe %b" ok
  | Shard.Heartbeat -> "heartbeat"
  | Shard.Tick -> "tick"

let trace_arb =
  QCheck.make
    ~print:
      (QCheck.Print.list (fun (dt, ev) -> Printf.sprintf "+%.1f %s" dt (print_event ev)))
    QCheck.Gen.(list_size (int_range 1 80) (pair (oneofl [ 0.0; 0.2; 0.7; 2.5; 6.0; 12.0 ]) event_gen))

let shard_model_prop =
  QCheck.Test.make ~count:500 ~name:"random traces match the table's model" trace_arb
    (fun trace ->
      let rec go now st m = function
        | [] -> true
        | (dt, ev) :: rest ->
          let now = now +. dt in
          let st, acts = Shard.step settings ~now st ev in
          let m, macts = model_step m ~now ev in
          if describe_phase st.Shard.phase <> describe_model m then
            QCheck.Test.fail_reportf "state %s, model %s after %s"
              (describe_phase st.Shard.phase) (describe_model m) (print_event ev)
          else if List.map describe_action acts <> macts then
            QCheck.Test.fail_reportf "actions [%s], model [%s] after %s"
              (String.concat "; " (List.map describe_action acts))
              (String.concat "; " macts) (print_event ev)
          else go now st m rest
      in
      go 0.0 Shard.initial model_initial trace)

let to_alcotest test =
  let rng = Cs_util.Rng.create 0x5A4D_0001 in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

(* --- durable journal ----------------------------------------------- *)

let journal_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cs_journal_%s_%d_%d" name (Unix.getpid ()) !n)

let test_journal_recovery_and_dedup () =
  let dir = journal_dir "unit" in
  let req = Proto.request ~id:"a" ~idem_key:"retry-a" ~machine:"raw4" "fir" in
  let j = Journal.open_dir ~dir ~recover:false () in
  Journal.admit j ~key:"K1" req;
  Alcotest.(check int) "admit counts as lag" 1 (Journal.lag j);
  Alcotest.(check bool) "not completed yet" true (Journal.completed j "K1" = None);
  Journal.close j;
  (* crash before the done record: recovery must replay the admit *)
  let j2 = Journal.open_dir ~dir ~recover:true () in
  (match Journal.pending j2 with
  | [ (key, req') ] ->
    Alcotest.(check string) "pending key" "K1" key;
    Alcotest.(check string) "request survives the log" req.Proto.id req'.Proto.id;
    Alcotest.(check (option string)) "idem key survives the log"
      req.Proto.idem_key req'.Proto.idem_key
  | l -> Alcotest.failf "expected one pending job, got %d" (List.length l));
  let reply =
    Proto.reply ~id:"a" ~elapsed_ms:2.0
      (Proto.Scheduled
         { cycles = 17; transfers = 3; rung = "requested"; timed_out = false;
           quarantined = 0 })
  in
  Journal.mark_done j2 ~key:"K1" reply;
  Alcotest.(check int) "done clears lag" 0 (Journal.lag j2);
  Journal.close j2;
  (* after the done record, recovery feeds the dedup map instead *)
  let j3 = Journal.open_dir ~dir ~recover:true () in
  Alcotest.(check int) "nothing pending" 0 (List.length (Journal.pending j3));
  (match Journal.completed j3 "K1" with
  | Some r -> Alcotest.(check bool) "verdict preserved" true (r.Proto.verdict = reply.Proto.verdict)
  | None -> Alcotest.fail "done key must be in the dedup map");
  Journal.close j3;
  (* recover:false is an explicit fresh start *)
  let j4 = Journal.open_dir ~dir ~recover:false () in
  Alcotest.(check bool) "journal discarded without recover" true
    (Journal.completed j4 "K1" = None);
  Journal.close j4

(* --- dispatch policy ----------------------------------------------- *)

let test_policy_orderings () =
  let ring = Ring.make [ "a"; "b"; "c" ] in
  let key = key_of 7 in
  let views depths_ewmas =
    List.map
      (fun (name, queue_depth, ewma_ms) -> { Policy.name; queue_depth; ewma_ms })
      depths_ewmas
  in
  let all = views [ ("a", 5, 100.0); ("b", 0, 100.0); ("c", 2, 100.0) ] in
  Alcotest.(check (list string)) "hash = ring order"
    (Ring.candidates ring key)
    (Policy.order Policy.Hash ~ring ~key ~deadline_ms:None all);
  (match Policy.order Policy.Least_loaded ~ring ~key ~deadline_ms:None all with
  | first :: _ -> Alcotest.(check string) "least-loaded picks empty queue" "b" first
  | [] -> Alcotest.fail "no candidates");
  (* WCT: a fast shard with a short queue beats a slow shard, and a
     deadline deprioritizes shards predicted to miss it. *)
  let skewed = views [ ("a", 0, 1000.0); ("b", 2, 10.0); ("c", 9, 10.0) ] in
  (match Policy.order Policy.Weighted_completion_time ~ring ~key ~deadline_ms:(Some 50.0) skewed with
  | first :: _ -> Alcotest.(check string) "wct prefers predicted-to-make shard" "b" first
  | [] -> Alcotest.fail "no candidates");
  Alcotest.(check int) "policies permute, never drop" 3
    (List.length (Policy.order Policy.Weighted_completion_time ~ring ~key ~deadline_ms:None all))

(* --- canonical scenario hash --------------------------------------- *)

let scenario_hash (sc : Cs_check.Scenario.t) =
  Cs_core.Scenario.canonical_hash ~faults:sc.Cs_check.Scenario.faults
    ~spec:(Cs_check.Scenario.spec_to_string sc.Cs_check.Scenario.spec)
    ~machine:sc.Cs_check.Scenario.machine sc.Cs_check.Scenario.region

let scenario_form (sc : Cs_check.Scenario.t) =
  Cs_core.Scenario.canonical_form ~faults:sc.Cs_check.Scenario.faults
    ~spec:(Cs_check.Scenario.spec_to_string sc.Cs_check.Scenario.spec)
    ~machine:sc.Cs_check.Scenario.machine sc.Cs_check.Scenario.region

let test_hash_collision_sweep () =
  (* Sweep the fuzz generator's seed space: distinct canonical forms must
     hash distinctly. (Equal forms — the generator's space is finite —
     are legitimately equal scenarios, not collisions.) *)
  let seen = Hashtbl.create 256 in
  let distinct = ref 0 in
  for seed = 0 to 149 do
    let sc = Cs_check.Gen.case ~seed in
    let form = scenario_form sc in
    let h = scenario_hash sc in
    match Hashtbl.find_opt seen h with
    | None ->
      Hashtbl.replace seen h form;
      incr distinct
    | Some prior ->
      if not (String.equal prior form) then
        Alcotest.failf "hash collision at seed %d: %Lx" seed h
  done;
  Alcotest.(check bool) "sweep exercised many distinct scenarios" true (!distinct > 100)

let test_hash_roundtrip_stable () =
  (* The hash must survive serialize/parse: Textual.of_string renumbers
     registers, so this exercises the renaming-invariant canonical
     form. *)
  for seed = 0 to 19 do
    let sc = Cs_check.Gen.case ~seed in
    let region = sc.Cs_check.Scenario.region in
    match Cs_ddg.Textual.of_string (Cs_ddg.Textual.to_string region) with
    | Error e -> Alcotest.failf "seed %d: reparse failed: %s" seed e
    | Ok region' ->
      let machine = sc.Cs_check.Scenario.machine in
      Alcotest.(check string)
        (Printf.sprintf "seed %d hash stable across round trip" seed)
        (Cs_core.Scenario.hex (Cs_core.Scenario.canonical_hash ~machine region))
        (Cs_core.Scenario.hex (Cs_core.Scenario.canonical_hash ~machine region'))
  done

let test_repro_fingerprint () =
  let sc = Cs_check.Gen.case ~seed:5 in
  let t = { Cs_check.Repro.scenario = sc; check = Some "validator"; note = None } in
  let text = Cs_check.Repro.to_string t in
  Alcotest.(check bool) "fingerprint header present" true
    (List.exists
       (fun l -> String.length l > 12 && String.sub l 0 12 = "fingerprint ")
       (String.split_on_char '\n' text));
  (match Cs_check.Repro.of_string text with
  | Ok t' ->
    Alcotest.(check string) "round-trips with fingerprint"
      (Cs_check.Repro.fingerprint sc)
      (Cs_check.Repro.fingerprint t'.Cs_check.Repro.scenario)
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (* Tamper with a hashed field: the load must be rejected. *)
  let tampered =
    String.concat "\n"
      (List.map
         (fun l ->
           if String.length l > 5 && String.sub l 0 5 = "seed " then "seed 424242"
           else l)
         (String.split_on_char '\n' text))
  in
  match Cs_check.Repro.of_string tampered with
  | Error e ->
    Alcotest.(check bool) "error names the fingerprint" true
      (String.length e >= 11 && String.sub e 0 11 = "fingerprint")
  | Ok _ -> Alcotest.fail "tampered repro must be rejected"

(* --- transport + pong codecs --------------------------------------- *)

let test_transport_parse () =
  (match Transport.parse "127.0.0.1:7100" with
  | Ok (Transport.Tcp { host = "127.0.0.1"; port = 7100 }) -> ()
  | _ -> Alcotest.fail "host:port should parse as TCP");
  (match Transport.parse ":7100" with
  | Ok (Transport.Tcp { host = ""; port = 7100 }) -> ()
  | _ -> Alcotest.fail ":port should parse as TCP on all interfaces");
  (match Transport.parse "/tmp/x.sock" with
  | Ok (Transport.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "path should parse as Unix socket");
  (match Transport.parse "host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric port must error");
  (match Transport.parse "host:70000" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range port must error");
  (match Transport.parse "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty address must error");
  List.iter
    (fun s ->
      match Transport.parse s with
      | Ok addr -> Alcotest.(check string) "to_string round trip" s (Transport.to_string addr)
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    [ "127.0.0.1:7100"; "/tmp/csched.sock" ]

let test_pong_roundtrip () =
  let s =
    { Proto.queue_depth = 4; workers = 2; busy = 1; admitted = 10; completed = 7;
      shed = 2; refusals = 1;
      extra = [ ("cache_hits", 5.0); ("shards_alive", 2.0) ] }
  in
  match Proto.pong_of_line (Proto.pong_to_line ~id:"probe" s) with
  | Error e -> Alcotest.failf "pong round trip failed: %s" e
  | Ok (id, s') ->
    Alcotest.(check string) "id" "probe" id;
    Alcotest.(check int) "queue_depth" s.Proto.queue_depth s'.Proto.queue_depth;
    Alcotest.(check int) "busy" s.Proto.busy s'.Proto.busy;
    let sorted l = List.sort compare l in
    Alcotest.(check (list (pair string (float 0.0)))) "extra round-trips"
      (sorted s.Proto.extra) (sorted s'.Proto.extra)

(* --- in-process fleet ---------------------------------------------- *)

let with_server ?chaos_slow_ms ?(workers = 2) spec f =
  let cfg = Cs_svc.Server.config ~workers ?chaos_slow_ms spec in
  let server = Cs_svc.Server.create cfg in
  let d = Domain.spawn (fun () -> Cs_svc.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Cs_svc.Server.stop server;
      Domain.join d)
    (fun () -> f server)

let with_gateway cfg f =
  let gw = Gateway.create cfg in
  let d = Domain.spawn (fun () -> Gateway.run gw) in
  Fun.protect
    ~finally:(fun () ->
      Gateway.stop gw;
      Domain.join d)
    (fun () -> f gw)

let shard_spec server = Transport.to_string (Cs_svc.Server.address server)

let test_gateway_journal_exactly_once_across_restart () =
  with_server "127.0.0.1:0" @@ fun s1 ->
  let dir = journal_dir "e2e" in
  let cfg recover =
    Gateway.config ~forwarders:2 ~probe_period_s:0.2 ~journal_dir:dir ~recover
      ~shards:[ shard_spec s1 ] "127.0.0.1:0"
  in
  let jobs =
    List.init 4 (fun i ->
        Proto.request
          ~id:(Printf.sprintf "job-%d" i)
          ~idem_key:(Printf.sprintf "key-%d" i)
          ~machine:"raw4" ~seed:i "fir")
  in
  let cycles_of replies =
    List.map
      (fun r ->
        match r.Proto.verdict with
        | Proto.Scheduled { cycles; _ } -> (r.Proto.reply_id, cycles)
        | Proto.Refused e ->
          Alcotest.failf "job %s refused: %s" r.Proto.reply_id e.message)
      (List.sort (fun a b -> compare a.Proto.reply_id b.Proto.reply_id) replies)
  in
  let first =
    with_gateway (cfg false) @@ fun gw ->
    match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw) jobs with
    | Error e -> Alcotest.failf "first submit failed: %s" e
    | Ok replies -> cycles_of replies
  in
  (* a new gateway over the same journal dir = restart with --recover;
     the same idempotency keys must be answered from the journal with
     the identical verdicts, no shard hop *)
  with_gateway (cfg true) @@ fun gw2 ->
  match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw2) jobs with
  | Error e -> Alcotest.failf "post-recovery submit failed: %s" e
  | Ok replies ->
    Alcotest.(check (list (pair string int))) "verdicts identical across restart"
      first (cycles_of replies);
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s served from the journal" r.Proto.reply_id)
          true r.Proto.cached)
      replies;
    let st = Gateway.stats gw2 in
    Alcotest.(check int) "every retry was a journal hit" (List.length jobs)
      st.Gateway.journal_hits;
    Alcotest.(check int) "no job re-dispatched to a shard" 0 st.Gateway.forwarded;
    Alcotest.(check int) "journal fully drained" 0 st.Gateway.journal_pending

let test_gateway_cache_accounting () =
  with_server "127.0.0.1:0" @@ fun s1 ->
  let cfg =
    Gateway.config ~cache_capacity:16 ~forwarders:2 ~probe_period_s:0.2
      ~shards:[ shard_spec s1 ] "127.0.0.1:0"
  in
  with_gateway cfg @@ fun gw ->
  let addr = Gateway.address gw in
  let jobs =
    List.init 3 (fun i ->
        Proto.request ~id:(Printf.sprintf "w%d" i) ~machine:"raw4" ~seed:i "fir")
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr jobs with
  | Error e -> Alcotest.failf "warm wave failed: %s" e
  | Ok replies ->
    Alcotest.(check int) "warm wave answered" 3 (List.length replies);
    List.iter
      (fun r -> Alcotest.(check bool) "warm wave not cached" false r.Proto.cached)
      replies);
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr jobs with
  | Error e -> Alcotest.failf "repeat wave failed: %s" e
  | Ok replies ->
    Alcotest.(check int) "repeat wave answered" 3 (List.length replies);
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s served from cache" r.Proto.reply_id)
          true r.Proto.cached;
        match r.Proto.verdict with
        | Proto.Scheduled s -> Alcotest.(check bool) "real schedule" true (s.cycles > 0)
        | Proto.Refused e -> Alcotest.failf "cached job refused: %s" e.message)
      replies);
  let st = Gateway.stats gw in
  Alcotest.(check int) "3 hits" 3 st.Gateway.cache_hits;
  Alcotest.(check int) "3 misses" 3 st.Gateway.cache_misses;
  Alcotest.(check int) "only the misses hit a shard" 3 st.Gateway.forwarded;
  (* refusals are never cached: an impossible deadline on a fresh
     scenario misses twice and leaves the cache untouched *)
  let doomed i =
    [ Proto.request ~id:(Printf.sprintf "d%d" i) ~machine:"raw4" ~seed:77
        ~deadline_ms:0.0 "fir" ]
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr (doomed 0) with
  | Ok [ r ] -> (
    match r.Proto.verdict with
    | Proto.Refused e -> Alcotest.(check string) "typed refusal" "deadline-exceeded" e.kind
    | _ -> Alcotest.fail "impossible deadline must refuse")
  | Ok _ | Error _ -> Alcotest.fail "doomed job must get one reply");
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr (doomed 1) with
  | Ok [ r ] -> Alcotest.(check bool) "refusal was not cached" false r.Proto.cached
  | Ok _ | Error _ -> Alcotest.fail "doomed job must get one reply");
  let st = Gateway.stats gw in
  Alcotest.(check int) "refusal wave added two misses" 5 st.Gateway.cache_misses;
  Alcotest.(check int) "refusal wave added no hits" 3 st.Gateway.cache_hits

(* A request the shard's resolver would refuse is refused by the
   gateway itself: no shard hop, no journal admit, no cache lookup. *)
let test_gateway_refuses_bad_requests_locally () =
  with_server "127.0.0.1:0" @@ fun s1 ->
  let dir = journal_dir "refuse" in
  let cfg =
    Gateway.config ~forwarders:2 ~probe_period_s:0.2 ~journal_dir:dir ~recover:false
      ~shards:[ shard_spec s1 ] "127.0.0.1:0"
  in
  let jobs =
    [ Proto.request ~id:"sched" ~machine:"raw4" ~scheduler:"bogus" ~idem_key:"k1" "fir";
      Proto.request ~id:"passes" ~machine:"raw4" ~passes:"BOGUS" ~idem_key:"k2" "fir" ]
  in
  with_gateway cfg (fun gw ->
      (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw) jobs with
      | Error e -> Alcotest.failf "submit failed: %s" e
      | Ok replies ->
        Alcotest.(check int) "both answered" 2 (List.length replies);
        List.iter
          (fun r ->
            match r.Proto.verdict with
            | Proto.Refused e ->
              Alcotest.(check string) (r.Proto.reply_id ^ " refusal kind") "invalid-input"
                e.kind
            | Proto.Scheduled _ -> Alcotest.failf "%s was scheduled" r.Proto.reply_id)
          replies);
      let st = Gateway.stats gw in
      Alcotest.(check int) "nothing forwarded" 0 st.Gateway.forwarded;
      Alcotest.(check int) "no cache hit" 0 st.Gateway.cache_hits;
      Alcotest.(check int) "no cache miss" 0 st.Gateway.cache_misses);
  let wal, recovery = Cs_util.Wal.open_dir ~dir () in
  Cs_util.Wal.close wal;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Alcotest.(check (list string)) "no journal record" [] recovery.Cs_util.Wal.records

let test_gateway_failover_exactly_once () =
  (* 2 shards on loopback TCP, every job slowed so the batch is still in
     flight when one shard is SIGKILL-equivalently severed mid-batch:
     every job must be answered exactly once, the in-flight jobs of the
     dead shard replayed on the survivor. *)
  with_server ~chaos_slow_ms:250.0 "127.0.0.1:0" @@ fun s1 ->
  with_server ~chaos_slow_ms:250.0 "127.0.0.1:0" @@ fun s2 ->
  let cfg =
    Gateway.config ~forwarders:4 ~probe_period_s:0.15
      ~shards:[ shard_spec s1; shard_spec s2 ]
      "127.0.0.1:0"
  in
  with_gateway cfg @@ fun gw ->
  let n_jobs = 8 in
  let jobs =
    List.init n_jobs (fun i ->
        Proto.request ~id:(Printf.sprintf "job%d" i) ~machine:"raw4" ~seed:i "fir")
  in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.12;
        (* kill whichever shard actually holds jobs *)
        let victim =
          if (Cs_svc.Server.stats s1).Cs_svc.Server.admitted > 0 then s1 else s2
        in
        Cs_svc.Server.abort victim;
        Transport.to_string (Cs_svc.Server.address victim))
  in
  let replies =
    match Cs_svc.Client.submit ~timeout_s:120.0 ~addr:(Gateway.address gw) jobs with
    | Error e -> Alcotest.failf "submit through gateway failed: %s" e
    | Ok replies -> replies
  in
  let victim_name = Domain.join killer in
  Alcotest.(check int) "zero lost jobs" n_jobs (List.length replies);
  List.iter
    (fun (job : Proto.request) ->
      let matching =
        List.filter (fun r -> r.Proto.reply_id = job.Proto.id) replies
      in
      Alcotest.(check int)
        (Printf.sprintf "%s answered exactly once" job.Proto.id)
        1 (List.length matching);
      match (List.hd matching).Proto.verdict with
      | Proto.Scheduled s ->
        Alcotest.(check bool) "replayed job got a real schedule" true (s.cycles > 0)
      | Proto.Refused e ->
        Alcotest.failf "%s refused after failover: %s %s" job.Proto.id e.kind e.message)
    jobs;
  let st = Gateway.stats gw in
  Alcotest.(check bool)
    (Printf.sprintf "in-flight jobs were replayed (%d)" st.Gateway.replayed)
    true (st.Gateway.replayed >= 1);
  (match List.assoc_opt victim_name (Gateway.shard_states gw) with
  | Some Shard.Up -> Alcotest.fail "dead shard still marked healthy"
  | Some _ -> ()
  | None -> Alcotest.fail "victim missing from health table");
  (* the fleet keeps serving on the survivor *)
  match
    Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw)
      [ Proto.request ~id:"after" ~machine:"raw4" ~seed:99 "fir" ]
  with
  | Ok [ r ] -> (
    match r.Proto.verdict with
    | Proto.Scheduled _ -> ()
    | Proto.Refused e -> Alcotest.failf "post-failover job refused: %s" e.message)
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
  | Error e -> Alcotest.failf "post-failover submit failed: %s" e

(* A stand-in shard that answers probes but alternates its job
   outcomes: a canned schedule, then a connection closed without a
   reply. It never fails twice in a row, so only the failure-rate
   criterion can take it down. *)
let with_flaky_shard f =
  let addr = Transport.parse_exn "127.0.0.1:0" in
  let listen_fd = Transport.listen addr in
  let bound = Transport.bound_addr listen_fd addr in
  let stopping = Atomic.make false in
  let jobs = Atomic.make 0 in
  let serve fd =
    let ic = Unix.in_channel_of_descr fd in
    let rec lines acc =
      match input_line ic with
      | l -> lines (if String.trim l = "" then acc else l :: acc)
      | exception End_of_file -> List.rev acc
    in
    let reply line = ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1)) in
    (match lines [] with
    | first :: _ -> (
      match Proto.incoming_of_line first with
      | Ok (Proto.Control { id; _ }) ->
        reply
          (Proto.pong_to_line ~id
             { Proto.queue_depth = 0; workers = 1; busy = 0; admitted = 0;
               completed = 0; shed = 0; refusals = 0; extra = [] })
      | Ok (Proto.Job_request r) ->
        if Atomic.fetch_and_add jobs 1 mod 2 = 0 then
          reply
            (Proto.reply_to_line
               (Proto.reply ~id:r.Proto.id ~elapsed_ms:1.0
                  (Proto.Scheduled
                     { cycles = 1; transfers = 0; rung = "requested";
                       timed_out = false; quarantined = 0 })))
      | _ -> ())
    | [] -> ());
    Unix.close fd
  in
  let rec accept_loop () =
    match Unix.accept listen_fd with
    | fd, _ ->
      if not (Atomic.get stopping) then begin
        serve fd;
        accept_loop ()
      end
      else Unix.close fd
    | exception Unix.Unix_error _ -> if not (Atomic.get stopping) then accept_loop ()
  in
  let d = Domain.spawn accept_loop in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stopping true;
      (try Unix.close (Transport.connect bound) with Unix.Unix_error _ -> ());
      Domain.join d;
      Unix.close listen_fd)
    (fun () -> f (Transport.to_string bound) jobs)

let test_gateway_rate_tripped_shard_leaves_alive () =
  with_server "127.0.0.1:0" @@ fun s1 ->
  with_flaky_shard @@ fun flaky flaky_jobs ->
  (* one forwarder keeps outcomes in order; a long probe period keeps
     the prober from re-admitting the shard mid-test *)
  let cfg =
    Gateway.config ~forwarders:1 ~probe_period_s:30.0
      ~shards:[ shard_spec s1; flaky ] "127.0.0.1:0"
  in
  with_gateway cfg @@ fun gw ->
  let addr = Gateway.address gw in
  let extra k =
    match Cs_svc.Client.fetch_stats ~addr () with
    | Ok s -> List.assoc_opt k s.Proto.extra
    | Error e -> Alcotest.failf "gateway stats failed: %s" e
  in
  Alcotest.(check (option (float 0.0))) "both shards alive" (Some 2.0)
    (extra "shards_alive");
  Alcotest.(check (option (float 0.0))) "full watermark" (Some 54.0)
    (extra "admission_watermark");
  let flaky_down () =
    match List.assoc_opt flaky (Gateway.shard_states gw) with
    | Some (Shard.Down _) -> true
    | _ -> false
  in
  let rec submit i =
    if i < 80 && not (flaky_down ()) then begin
      (match
         Cs_svc.Client.submit ~timeout_s:60.0 ~addr
           [ Proto.request ~id:(Printf.sprintf "r%d" i) ~machine:"raw4" ~seed:i "fir" ]
       with
      | Ok [ { Proto.verdict = Proto.Scheduled _; _ } ] -> ()
      | Ok _ -> Alcotest.failf "job r%d not scheduled" i
      | Error e -> Alcotest.failf "submit failed: %s" e);
      submit (i + 1)
    end
  in
  submit 0;
  Alcotest.(check bool) "alternating failures took the shard down" true (flaky_down ());
  Alcotest.(check int) "tripped on rate at min_calls, never on the streak"
    Shard.min_calls (Atomic.get flaky_jobs);
  Alcotest.(check (option (float 0.0))) "stats pong: one shard alive" (Some 1.0)
    (extra "shards_alive");
  Alcotest.(check (option (float 0.0))) "watermark halves with the alive count"
    (Some 27.0) (extra "admission_watermark");
  match Cs_svc.Client.fetch_metrics ~addr () with
  | Ok (Proto.Snapshot snap) ->
    Alcotest.(check bool) "csched_shards_alive gauge" true
      (Cs_obs.Metrics.find snap "csched_shards_alive" = Some (Cs_obs.Metrics.Gauge_v 1.0));
    Alcotest.(check bool) "csched_shard_state reads down" true
      (Cs_obs.Metrics.find snap ~labels:[ ("shard", flaky) ] "csched_shard_state"
      = Some (Cs_obs.Metrics.Gauge_v 2.0))
  | Ok (Proto.Prom_text _) -> Alcotest.fail "asked for json"
  | Error e -> Alcotest.failf "metrics verb failed: %s" e

let test_gateway_stats_verb () =
  with_server "127.0.0.1:0" @@ fun s1 ->
  let cfg = Gateway.config ~shards:[ shard_spec s1 ] "127.0.0.1:0" in
  with_gateway cfg @@ fun gw ->
  (* shard-level stats verb *)
  (match Cs_svc.Client.fetch_stats ~addr:(Cs_svc.Server.address s1) () with
  | Error e -> Alcotest.failf "shard stats failed: %s" e
  | Ok s ->
    Alcotest.(check int) "shard workers" 2 s.Proto.workers;
    Alcotest.(check int) "shard queue empty" 0 s.Proto.queue_depth);
  (* gateway-level stats verb carries fleet counters *)
  (match
     Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw)
       [ Proto.request ~id:"one" ~machine:"raw4" "fir" ]
   with
  | Ok [ _ ] -> ()
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
  | Error e -> Alcotest.failf "submit failed: %s" e);
  match Cs_svc.Client.fetch_stats ~addr:(Gateway.address gw) () with
  | Error e -> Alcotest.failf "gateway stats failed: %s" e
  | Ok s ->
    Alcotest.(check int) "gateway completed" 1 s.Proto.completed;
    let extra k = List.assoc_opt k s.Proto.extra in
    Alcotest.(check (option (float 0.0))) "shards_total" (Some 1.0) (extra "shards_total");
    Alcotest.(check (option (float 0.0))) "shards_alive" (Some 1.0) (extra "shards_alive");
    Alcotest.(check (option (float 0.0))) "forwarded" (Some 1.0) (extra "forwarded");
    Alcotest.(check bool) "cache counters present" true
      (extra "cache_hits" <> None && extra "cache_misses" <> None)

let test_gateway_metrics_verb_accounts_every_job () =
  let module M = Cs_obs.Metrics in
  with_server "127.0.0.1:0" @@ fun s1 ->
  with_server "127.0.0.1:0" @@ fun s2 ->
  let cfg =
    Gateway.config ~forwarders:2 ~probe_period_s:0.2
      ~shards:[ shard_spec s1; shard_spec s2 ]
      "127.0.0.1:0"
  in
  with_gateway cfg @@ fun gw ->
  let n = 6 in
  let jobs =
    List.init n (fun i ->
        Proto.request ~id:(Printf.sprintf "m%d" i) ~machine:"raw4" ~seed:i "fir")
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw) jobs with
  | Ok rs -> Alcotest.(check int) "all answered" n (List.length rs)
  | Error e -> Alcotest.failf "submit failed: %s" e);
  let snap_of addr =
    match Cs_svc.Client.fetch_metrics ~addr () with
    | Ok (Proto.Snapshot snap) -> snap
    | Ok (Proto.Prom_text _) -> Alcotest.fail "asked for json, got prometheus"
    | Error e -> Alcotest.failf "metrics verb failed: %s" e
  in
  let counter snap name =
    match M.find snap name with Some (M.Counter_v v) -> v | _ -> 0
  in
  let gw_snap = snap_of (Gateway.address gw) in
  let s1_snap = snap_of (Cs_svc.Server.address s1) in
  let s2_snap = snap_of (Cs_svc.Server.address s2) in
  Alcotest.(check int) "gateway admitted every client job" n
    (counter gw_snap "csched_jobs_admitted_total");
  Alcotest.(check int) "shard admissions account for every forwarded job" n
    (counter s1_snap "csched_jobs_admitted_total"
    + counter s2_snap "csched_jobs_admitted_total"
    + counter gw_snap "csched_cache_hits_total");
  let forwarded_by_label =
    M.fold_name gw_snap "csched_gateway_forwarded_total" ~init:0 ~f:(fun acc _ e ->
        match e with M.Counter_v v -> acc + v | _ -> acc)
  in
  Alcotest.(check int) "per-shard forwarded counters sum to the batch" n
    forwarded_by_label;
  (* merged fleet snapshot: job latency histogram holds every observation *)
  let merged = M.merge_all [ gw_snap; s1_snap; s2_snap ] in
  (match M.find merged "csched_job_latency_ms" with
  | Some (M.Histo_v h) ->
    Alcotest.(check int) "merged latency histogram sees gateway + shard samples"
      (2 * n) (M.total h)
  | _ -> Alcotest.fail "merged latency histogram missing");
  (* the Prometheus rendering of the same registry parses line by line *)
  match Cs_svc.Client.fetch_metrics ~format:Proto.Metrics_prometheus
          ~addr:(Gateway.address gw) ()
  with
  | Ok (Proto.Prom_text text) ->
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           if line <> "" && line.[0] <> '#' then
             match String.rindex_opt line ' ' with
             | None -> Alcotest.failf "unparseable sample: %s" line
             | Some i ->
               if
                 float_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
                 = None
               then Alcotest.failf "non-numeric value: %s" line)
  | Ok (Proto.Snapshot _) -> Alcotest.fail "asked for prometheus, got json"
  | Error e -> Alcotest.failf "prometheus fetch failed: %s" e

let test_gateway_trace_propagation () =
  (* In-process gateway + shard share one Obs sink, so one traced job
     leaves both halves of the cross-process story in a single capture:
     the gateway's dispatch span parented on the client's root span, and
     the shard's run span parented on the gateway's dispatch span, all
     under one trace id. *)
  let module Obs = Cs_obs.Obs in
  with_server "127.0.0.1:0" @@ fun s1 ->
  let cfg = Gateway.config ~shards:[ shard_spec s1 ] "127.0.0.1:0" in
  with_gateway cfg @@ fun gw ->
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ())
  @@ fun () ->
  let ctx = Cs_obs.Tracectx.root () in
  let r =
    Proto.with_trace ~ctx (Proto.request ~id:"traced" ~machine:"raw4" "fir")
  in
  (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Gateway.address gw) [ r ] with
  | Ok [ _ ] -> ()
  | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
  | Error e -> Alcotest.failf "submit failed: %s" e);
  Obs.disable ();
  let evs = Obs.events () in
  let arg_str key e =
    List.fold_left
      (fun acc (k, v) ->
        match v with Obs.Str s when k = key -> Some s | _ -> acc)
      None e.Obs.args
  in
  let find_span name =
    match
      List.find_opt
        (fun e -> e.Obs.name = name && arg_str "trace_id" e = Some ctx.Cs_obs.Tracectx.trace_id)
        evs
    with
    | Some e -> e
    | None -> Alcotest.failf "no %s span carrying the trace id" name
  in
  let dispatch = find_span "job:dispatch" in
  let run = find_span "job:run" in
  Alcotest.(check (option string)) "dispatch parented on the client root span"
    (Some ctx.Cs_obs.Tracectx.span_id)
    (arg_str "parent_span" dispatch);
  Alcotest.(check (option string)) "shard run parented on the dispatch span"
    (arg_str "span_id" dispatch)
    (arg_str "parent_span" run);
  Alcotest.(check bool) "hops mint distinct span ids" false
    (arg_str "span_id" dispatch = arg_str "span_id" run)

let () =
  Alcotest.run "gateway"
    [
      ( "ring",
        [
          Alcotest.test_case "route stable + candidates" `Quick test_ring_route_stable;
          Alcotest.test_case "rebalance bound on shard loss" `Quick
            test_ring_rebalance_bound;
        ] );
      ("cache", [ Alcotest.test_case "lru accounting" `Quick test_cache_lru_accounting ]);
      ( "shard",
        [
          Alcotest.test_case "transition table: every state x event" `Quick
            test_shard_transition_table;
          Alcotest.test_case "evict + backoff readmit" `Quick test_shard_evict_and_readmit;
          Alcotest.test_case "backoff capped at max interval" `Quick
            test_shard_backoff_capped;
          Alcotest.test_case "trips on failure rate" `Quick
            test_shard_trips_on_failure_rate;
          Alcotest.test_case "slow calls + failed probe" `Quick
            test_shard_slow_calls_and_failed_probe;
          Alcotest.test_case "warm-up ramp" `Quick test_shard_warmup_ramp;
          Alcotest.test_case "heartbeat re-admission" `Quick
            test_shard_heartbeat_readmission;
          to_alcotest shard_model_prop;
        ] );
      ( "journal",
        [
          Alcotest.test_case "recovery + dedup" `Quick test_journal_recovery_and_dedup;
        ] );
      ("policy", [ Alcotest.test_case "orderings" `Quick test_policy_orderings ]);
      ( "scenario-hash",
        [
          Alcotest.test_case "collision sweep over fuzz seeds" `Slow
            test_hash_collision_sweep;
          Alcotest.test_case "stable across textual round trip" `Quick
            test_hash_roundtrip_stable;
          Alcotest.test_case "repro fingerprint" `Quick test_repro_fingerprint;
        ] );
      ( "codec",
        [
          Alcotest.test_case "transport parse" `Quick test_transport_parse;
          Alcotest.test_case "pong roundtrip" `Quick test_pong_roundtrip;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "bad requests refused locally" `Slow
            test_gateway_refuses_bad_requests_locally;
          Alcotest.test_case "cache hit/miss accounting" `Slow
            test_gateway_cache_accounting;
          Alcotest.test_case "mid-batch shard kill: exactly once" `Slow
            test_gateway_failover_exactly_once;
          Alcotest.test_case "journal: exactly once across restart" `Slow
            test_gateway_journal_exactly_once_across_restart;
          Alcotest.test_case "stats verb" `Slow test_gateway_stats_verb;
          Alcotest.test_case "rate-tripped shard leaves alive count" `Slow
            test_gateway_rate_tripped_shard_leaves_alive;
          Alcotest.test_case "metrics verb accounts every job" `Slow
            test_gateway_metrics_verb_accounts_every_job;
          Alcotest.test_case "trace propagation gateway -> shard" `Slow
            test_gateway_trace_propagation;
        ] );
    ]
