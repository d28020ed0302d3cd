(* What one workload run produces, and how it is printed. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type outcome = {
  attempted : int;  (** operations the run attempted, checks included *)
  failed : int;  (** failures and output-check violations *)
  problems : string list;  (** what failed, first cause first *)
  end_to_end : metric list;
  per_layer : metric list;
  details : (string * Cs_obs.Json.t) list;
      (** phase counts, sample counts and scenario facts for the result file *)
}

(* Collects failures while a run goes; [check] counts one attempted
   operation. *)
type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let tally () = { attempted = 0; failed = 0; problems = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.problems < 20 then t.problems <- msg :: t.problems

let check t ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then fail t (Lazy.force msg)

let pct p xs = Cs_util.Stats.percentile p xs
let median xs = Cs_util.Stats.median xs

let num x = Cs_obs.Json.Num x
let int x = Cs_obs.Json.Num (float_of_int x)
let str s = Cs_obs.Json.Str s

let metrics_json ms =
  Cs_obs.Json.Obj
    (List.map
       (fun m -> (m.name, Cs_obs.Json.Obj [ ("value", num m.value); ("unit", str m.unit) ]))
       ms)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-34s %14.4f %s\n" m.name m.value m.unit) ms
