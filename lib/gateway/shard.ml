type phase =
  | Up
  | Warming of { since : float; attempt : int }
  | Down of { attempt : int; retry_at : float; probing : bool }

type state = {
  phase : phase;
  streak : int;
  calls : int;
  window : int;
  last_hb : float;
}

type event =
  | Reply of float
  | Transport_failure
  | Overloaded
  | Probe_result of bool
  | Heartbeat
  | Tick

type action = Became of phase | Warm_up | Probe

let window = 32
let min_calls = 8
let slow_ms = 30_000.0
let warmup_s = 5.0
let max_delay_s = 10.0
let warm_entries = 16

type settings = {
  fail_threshold : int;
  probe_period_s : float;
  delays : float array;  (* clamped at the last step *)
}

let backoff =
  { Cs_svc.Retry.default with
    base_delay_s = 0.5; multiplier = 2.0; jitter = 0.25; max_attempts = 8;
    max_delay_s }

let settings ?(fail_threshold = 3) ?(probe_period_s = 1.0) () =
  if fail_threshold <= 0 then
    invalid_arg "Shard.settings: fail_threshold must be positive";
  { fail_threshold; probe_period_s;
    (* Retry caps the step before jitter; the cap here holds after it *)
    delays =
      Array.of_list (List.map (Float.min max_delay_s) (Cs_svc.Retry.delays backoff)) }

let delay s attempt = s.delays.(min (attempt - 1) (Array.length s.delays - 1))

let initial = { phase = Up; streak = 0; calls = 0; window = 0; last_hb = neg_infinity }

let level = function Up -> 0 | Warming _ -> 1 | Down _ -> 2
let name = function Up -> "up" | Warming _ -> "warming" | Down _ -> "down"

let rec popcount n = if n = 0 then 0 else (n land 1) + popcount (n lsr 1)

(* Every phase change starts a fresh outcome window: a re-admitted
   shard is judged on what it does from now on. *)
let enter st phase = ({ st with phase; streak = 0; calls = 0; window = 0 }, [ Became phase ])

let bury s ~now st attempt =
  enter st (Down { attempt; retry_at = now +. delay s attempt; probing = false })

let readmit ~now st attempt =
  let st, acts = enter st (Warming { since = now; attempt }) in
  (st, acts @ [ Warm_up ])

(* One outcome. Job calls ([call]) enter the rate window; probes and
   heartbeats only extend or reset the consecutive-failure streak. *)
let outcome s ~now st ~call ~failed =
  let streak = if failed then st.streak + 1 else 0 in
  let st =
    if call then
      { st with
        streak;
        window = ((st.window lsl 1) lor Bool.to_int failed) land ((1 lsl window) - 1);
        calls = min window (st.calls + 1) }
    else { st with streak }
  in
  let tripped =
    st.streak >= s.fail_threshold
    || (st.calls >= min_calls && 2 * popcount st.window >= st.calls)
  in
  match st.phase with
  | Down _ -> (st, [])
  | Up -> if tripped then bury s ~now st 1 else (st, [])
  | Warming { attempt; _ } -> if failed then bury s ~now st (attempt + 1) else (st, [])

let settle ~now st =
  match st.phase with
  | Warming { since; _ } when now -. since >= warmup_s -> { st with phase = Up }
  | _ -> st

let step s ~now prev ev =
  let st = settle ~now prev in
  let promoted = if st.phase = prev.phase then [] else [ Became Up ] in
  let st, acts =
    match (st.phase, ev) with
    | Down _, (Reply _ | Transport_failure | Overloaded) ->
      (* a straggler dispatched before the burial *)
      (st, [])
    | _, Overloaded -> (st, [])
    | _, Reply ms -> outcome s ~now st ~call:true ~failed:(ms > slow_ms)
    | _, Transport_failure -> outcome s ~now st ~call:true ~failed:true
    | Down { attempt; probing = true; _ }, Probe_result ok ->
      if ok then readmit ~now st attempt else bury s ~now st (attempt + 1)
    | Down _, Probe_result _ ->
      (* not the slot holder's probe: it was sent before the burial *)
      (st, [])
    | _, Probe_result ok -> outcome s ~now st ~call:false ~failed:(not ok)
    | Down { attempt; retry_at; _ }, Heartbeat when now >= retry_at ->
      readmit ~now { st with last_hb = now } attempt
    | Down _, Heartbeat -> ({ st with last_hb = now }, [])
    | _, Heartbeat -> outcome s ~now { st with last_hb = now } ~call:false ~failed:false
    | Down ({ probing = false; retry_at; _ } as d), Tick when now >= retry_at ->
      ({ st with phase = Down { d with probing = true } }, [ Probe ])
    | Down _, Tick -> (st, [])
    | (Up | Warming _), Tick ->
      (st, if now -. st.last_hb < 2.0 *. s.probe_period_s then [] else [ Probe ])
  in
  (st, promoted @ acts)

let admits ~now st ~key =
  match (settle ~now st).phase with
  | Up -> true
  | Down _ -> false
  | Warming { since; _ } ->
    Int64.to_int key land 1023 < int_of_float ((now -. since) /. warmup_s *. 1024.0)

let live st = match st.phase with Down _ -> false | Up | Warming _ -> true

(* --- the shared table ---------------------------------------------- *)

type t = {
  settings : settings;
  clock : unit -> float;
  mutex : Mutex.t;
  table : (string, state) Hashtbl.t;
}

let create ?(clock = Cs_obs.Clock.now) ?fail_threshold ?probe_period_s names =
  let table = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace table n initial) names;
  { settings = settings ?fail_threshold ?probe_period_s (); clock;
    mutex = Mutex.create (); table }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> f (t.clock ()))

let get t name = Option.value ~default:initial (Hashtbl.find_opt t.table name)

let feed t name ev =
  locked t (fun now ->
      let st, acts = step t.settings ~now (get t name) ev in
      Hashtbl.replace t.table name st;
      acts)

let phase t name = locked t (fun now -> (settle ~now (get t name)).phase)

let alive t names = locked t (fun _ -> List.filter (fun n -> live (get t n)) names)

let route t ~key names =
  locked t (fun now ->
      List.filter (fun n -> live (get t n)) names
      |> List.partition (fun n -> admits ~now (get t n) ~key)
      |> fun (first, demoted) -> first @ demoted)
