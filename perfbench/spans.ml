(* In-memory span recorder for the traced run.

   The benchmark records a span around each call it makes into one of
   the program's layers: name, start, end, the span that caused it, and
   the job (request) the span belongs to, so all spans of one job share
   an identifier. Spans stay in memory while the run measures and are
   written out as one Chrome trace when it ends. A disabled recorder
   costs one branch per call. *)

type span = { name : string; parent : string; job : int; t0 : float; t1 : float }

type t = { enabled : bool; lock : Mutex.t; mutable spans : span list }

let create ~enabled = { enabled; lock = Mutex.create (); spans = [] }
let now = Unix.gettimeofday

let record t ?(parent = "job") ~job name t0 t1 =
  if t.enabled then begin
    Mutex.lock t.lock;
    t.spans <- { name; parent; job; t0; t1 } :: t.spans;
    Mutex.unlock t.lock
  end

(* [time t ~on ~job name f] runs [f], recording a span when both the
   recorder and [on] are enabled. *)
let time t ?(on = true) ?parent ~job name f =
  if not (t.enabled && on) then f ()
  else begin
    let t0 = now () in
    let r = f () in
    record t ?parent ~job name t0 (now ());
    r
  end

let spans t = List.rev t.spans
let dur s = s.t1 -. s.t0

(* Total duration of the spans called [name] among jobs accepted by
   [keep]. *)
let total t ?(keep = fun _ -> true) name =
  List.fold_left
    (fun acc s -> if s.name = name && keep s.job then acc +. dur s else acc)
    0.0 t.spans

let write_chrome t path =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity t.spans in
  let us x = Cs_obs.Json.Num (Float.round ((x -. origin) *. 1e7) /. 10.0) in
  let event s =
    Cs_obs.Json.(Obj
      [ ("name", Str s.name); ("ph", Str "X"); ("pid", Num 1.0);
        ("tid", Num (float_of_int s.job)); ("ts", us s.t0);
        ("dur", Num (Float.round (dur s *. 1e7) /. 10.0));
        ("args", Obj [ ("parent", Str s.parent); ("job", Num (float_of_int s.job)) ]) ])
  in
  let doc = Cs_obs.Json.(Obj [ ("traceEvents", List (List.map event (spans t))) ]) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Cs_obs.Json.to_string doc);
      output_char oc '\n')
