(* The benchmark's entry point.

     bench --workload NAME --seed N --seconds S --trace 0|1
     bench --self-test

   Runs one workload for about S seconds, checks every output, writes a
   result file under perfbench/out/ and prints, as its last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. The
   metrics are the end-to-end ones untraced (--trace 0) and the
   per-layer ones traced (--trace 1). Exits 1 when any output check
   fails. Run it from the repository root after building
   bin/csched.exe (perfbench/run.sh does both). *)

open Report

let workloads = [ "compile-deep"; "compile-wide"; "serve-hot"; "serve-fresh" ]

(* The end-to-end metrics on the result line. Cost, set-up included, is
   measured in CPU time (on the compile workloads, at reference speed:
   see calib.ml): on a shared host the hypervisor's steal time moves
   wall-clock figures by far more than any bound worth setting (see
   README.md), and the kernel does not charge steal to a process. *)
let end_to_end_units =
  [ ("setup_s", "s"); ("instrs_per_cpu_s", "1/s"); ("makespan_cycles_geomean", "cycles");
    ("peak_rss_mb", "MB"); ("goodput_ratio", "ratio") ]

(* End-to-end metrics printed and kept in the result file, not on the
   result line: the wall-clock ones, CPU time per operation, which is
   [instrs_per_cpu_s] again in other units, and on the compile workloads
   the reference kernel's median time, which turns the scaled CPU times
   back into raw ones. *)
let reported_units =
  [ ("cpu_ms_per_op", "ms"); ("ref_kernel_ms", "ms"); ("setup_wall_s", "s"); ("instrs_per_s", "1/s");
    ("latency_ms_p50", "ms"); ("latency_ms_p90", "ms"); ("throughput_rps", "1/s") ]

let per_layer_units =
  [ ("workloads.generate_ms", "ms"); ("core.context_ms", "ms");
    ("core.driver_self_ms", "ms") ]
  @ List.map (fun p -> (Printf.sprintf "core.pass.%s_ms" p, "ms")) Inproc.pass_names
  @ [ ("core.weights_mb", "MB"); ("core.quarantined", "count"); ("sched.list_ms", "ms");
      ("sched.validate_ms", "ms"); ("sched.transfers", "count"); ("runtime.alloc_mb", "MB");
      ("runtime.major_gcs", "count"); ("job.wall_ms", "ms");
      ("svc.client.connect_ms_p50", "ms"); ("svc.proto.decode_us", "us");
      ("svc.proto.encode_us", "us"); ("svc.shard.queue_wait_ms_p50", "ms");
      ("svc.shard.queue_wait_ms_p90", "ms"); ("svc.shard.job_ms_p50", "ms");
      ("svc.shard.job_ms_p90", "ms"); ("svc.shard.shed", "count");
      ("svc.shard.steals", "count"); ("svc.shard.timed_out", "count");
      ("gateway.key_ms", "ms"); ("gateway.cache_hit_ratio", "ratio");
      ("gateway.hit_ms_p50", "ms"); ("gateway.miss_ms_p50", "ms");
      ("gateway.forwarded", "count"); ("gateway.replayed", "count");
      ("gateway.rerouted", "count"); ("gateway.shed", "count");
      ("loadgen.late_ms_p90", "ms"); ("trace.overhead_ratio", "ratio");
      ("trace.self_coverage_ratio", "ratio") ]

(* Every metric of the catalogue, in catalogue order. A layer the
   workload does not exercise reads 0. *)
let complete catalogue measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m when m.unit = unit -> m
      | Some m -> failwith (Printf.sprintf "metric %s in %s, expected %s" name m.unit unit)
      | None -> metric name unit 0.0)
    catalogue

(* ---- reproducibility stamps ------------------------------------------ *)

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    line

(* The commit only counts when this directory is the top of a git work
   tree; otherwise the source digest identifies the code. *)
let git_commit () =
  match command_line "git rev-parse --show-toplevel" with
  | Some top when (try Unix.realpath top = Unix.realpath (Sys.getcwd ()) with _ -> false) ->
    Option.value ~default:"unknown" (command_line "git rev-parse HEAD")
  | _ -> "unknown"

let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if
               Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" || e = "dune"
             then [ p ]
             else [])
  in
  let all = List.concat_map files [ "lib"; "bin" ] in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) all)))

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.length l > 10 && String.sub l 0 10 = "model name" ->
             Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"

(* CPU time the hypervisor gave to other guests (steal), summed over
   all CPUs, in seconds: a run with much of it was measured on a
   contended host. *)
let steal_s () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> 0.0
  | None -> 0.0
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
      float_of_string steal /. 100.0
    | _ -> 0.0)

let stamps ~workload ~seed ~seconds ~trace =
  [ ("workload", str workload); ("seed", int seed); ("run_seconds", num seconds);
    ("trace", int (if trace then 1 else 0));
    ( "host",
      Cs_obs.Json.Obj
        [ ("nproc", int (Domain.recommended_domain_count ())); ("cpu", str (cpu_model ()));
          ("ocaml", str Sys.ocaml_version); ("git_commit", str (git_commit ()));
          ("source_digest", str (source_digest ())) ] );
    ("started_unix", num (Unix.gettimeofday ())) ]

(* ---- main -------------------------------------------------------------- *)

let csched_exe = "_build/default/bin/csched.exe"
let out_dir = "perfbench/out"

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let die code msg =
  prerr_endline ("perfbench: " ^ msg);
  Fleet.stop_all ();
  exit code

let run ~workload ~seed ~seconds ~trace =
  (match Loadgen.self_test () with
  | [] -> ()
  | problems -> die 1 ("load generator self-test failed: " ^ String.concat "; " problems));
  (* The whole run, set-up and teardown included, must end well inside
     three minutes; a hung fleet is torn down rather than waited for. *)
  let budget = max 30 (min 170 (int_of_float seconds + 120)) in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> die 2 (Printf.sprintf "run exceeded %d s" budget)));
  ignore (Unix.alarm budget);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> die 3 "interrupted")))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Fleet.stop_all;
  let spans = Spans.create ~enabled:trace in
  let steal0 = steal_s () in
  let serve spec =
    if not (Sys.file_exists csched_exe) then die 1 (csched_exe ^ " is not built");
    Serve_wl.run spec ~exe:csched_exe ~seed ~seconds ~spans
  in
  let outcome =
    match workload with
    | "compile-deep" -> Compile_wl.run Compile_wl.deep ~seed ~seconds ~spans
    | "compile-wide" -> Compile_wl.run Compile_wl.wide ~seed ~seconds ~spans
    | "serve-hot" -> serve Serve_wl.hot
    | "serve-fresh" -> serve Serve_wl.fresh
    | w -> die 2 (Printf.sprintf "unknown workload %S (one of %s)" w (String.concat ", " workloads))
  in
  ignore (Unix.alarm 0);
  let steal = steal_s () -. steal0 in
  let correct = outcome.failed = 0 in
  let metrics =
    if trace then complete per_layer_units outcome.per_layer
    else complete end_to_end_units outcome.end_to_end
  in
  let reported = if trace then [] else complete reported_units outcome.end_to_end in
  let fail_ratio = float_of_int outcome.failed /. float_of_int (max 1 outcome.attempted) in
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir workload seed (if trace then 1 else 0) in
  mkdir_p out_dir;
  let result =
    Cs_obs.Json.Obj
      (stamps ~workload ~seed ~seconds ~trace
      @ [ ("correct", Cs_obs.Json.Bool correct); ("attempted", int outcome.attempted);
          ("failed", int outcome.failed); ("fail_ratio", num fail_ratio);
          ("problems", Cs_obs.Json.List (List.map str outcome.problems));
          ("host_steal_s", num steal);
          ("metrics", metrics_json metrics);
          ("reported_metrics", metrics_json reported) ]
      @ outcome.details)
  in
  Out_channel.with_open_text (base ^ ".json") (fun oc ->
      output_string oc (Cs_obs.Json.to_string result);
      output_char oc '\n');
  if trace then Spans.write_chrome spans (base ^ ".trace.json");
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) outcome.problems;
  print_table
    (Printf.sprintf "%s seed %d, %.0f s, %s" workload seed seconds
       (if trace then "traced (per-layer)" else "untraced (end-to-end)"))
    metrics;
  if reported <> [] then print_table "  reported, not on the result line" reported;
  Printf.printf "  %-34s %14.4f ratio (%d of %d failed)\n" "fail_ratio" fail_ratio
    outcome.failed outcome.attempted;
  List.iter
    (fun (k, v) ->
      match v with
      | Cs_obs.Json.List _ -> ()
      | v -> Printf.printf "  %-34s %s\n" k (Cs_obs.Json.to_string v))
    outcome.details;
  Printf.printf "  result file: %s.json\n" base;
  print_endline
    (Cs_obs.Json.to_string
       (Cs_obs.Json.Obj
          [ ("correct", Cs_obs.Json.Bool correct); ("attempted", int outcome.attempted);
            ("failed", int outcome.failed); ("metrics", metrics_json metrics) ]));
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let self_test = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--self-test", Arg.Set self_test, " check the load generator's accounting and exit") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench [options]";
  if !self_test then begin
    match Loadgen.self_test () with
    | [] -> print_endline "load generator self-test: ok"
    | problems ->
      List.iter prerr_endline problems;
      exit 1
  end
  else if !workload = "" then die 2 "--workload is required"
  else if !trace <> 0 && !trace <> 1 then die 2 "--trace takes 0 or 1"
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
