(* The compile workloads: one thread, closed loop, convergent jobs run
   in process. Each round runs every scenario once, in an order drawn
   from the seed. A job regenerates its region, schedules it and
   validates the schedule, as a [csched run] request does. *)

open Report

type spec = {
  name : string;
  scenarios : (string * int * string) list;  (** bench, scale, machine *)
  limit_ms : float;
      (** a job slower than this misses the latency limit: several times
          the job-time p90 of unchanged code, so goodput guards against
          gross slowdowns only *)
}

(* Long critical paths at the production nt cap: the dense weight-matrix
   passes dominate. *)
let deep =
  { name = "compile-deep";
    scenarios =
      [ ("sha", 4, "vliw4"); ("sha", 2, "raw16"); ("vpenta", 2, "raw16");
        ("cholesky", 2, "raw16"); ("fpppp-kernel", 2, "raw16") ];
    limit_ms = 2000.0 }

(* Short critical paths on Raw: LEVEL dominates, the matrix is small. *)
let wide =
  { name = "compile-wide";
    scenarios =
      [ ("mxm", 2, "raw16"); ("life", 2, "raw16"); ("jacobi", 2, "raw16");
        ("tomcatv", 2, "raw16"); ("swim", 2, "raw16") ];
    limit_ms = 6000.0 }

(* One set-up takes about 5 ms of CPU, too short to time on its own,
   and the host's speed drifts over seconds: a batch of [setup_batch]
   set-ups is timed at the start of every round, and the median batch's
   time per set-up is reported. *)
let setup_batch = 10

let scenarios spec =
  Array.of_list (List.map (fun (b, s, m) -> Inproc.scenario ~machine:m b s) spec.scenarios)

type job = {
  scen : int;
  traced : bool;
  wall : float;
  cpu : float;
  cycles : int;
  transfers : int;
}

(* Percentile of job latency with every scenario weighted equally, so
   the figure does not move with how many jobs of each scenario a run
   happened to finish. [by_scen] holds each scenario's samples. *)
let balanced_pct p by_scen =
  let by_scen = List.filter (fun l -> l <> []) by_scen in
  let k = float_of_int (List.length by_scen) in
  let weighted =
    List.concat_map
      (fun l ->
        let w = 1.0 /. (k *. float_of_int (List.length l)) in
        List.map (fun x -> (x, w)) l)
      by_scen
    |> List.sort compare
  in
  let rec go acc = function
    | [] -> 0.0
    | [ (x, _) ] -> x
    | (x, w) :: rest -> if acc +. w >= p /. 100.0 then x else go (acc +. w) rest
  in
  go 0.0 weighted

let run spec ~seed ~seconds ~spans =
  let traced = spans.Spans.enabled in
  let scen = scenarios spec in
  let k = Array.length scen in
  (* Set-up: generate every scenario and learn its static facts. It is
     counted in CPU time, like every cost on the result line; its wall
     time is reported beside it. The first batch runs before any job. *)
  let setups = ref [] and facts = ref [||] in
  let setup () =
    let c0 = Inproc.cpu_s () and t0 = Unix.gettimeofday () in
    for _ = 1 to setup_batch do
      facts := Array.map (fun s -> Inproc.facts s (Inproc.generate s)) scen
    done;
    let per x = x /. float_of_int setup_batch in
    setups := (per (Inproc.cpu_s () -. c0), per (Unix.gettimeofday () -. t0)) :: !setups
  in
  let tally = Report.tally () in
  let probes = Array.map Inproc.generate scen in
  let rng = Cs_util.Rng.create seed in
  let count = Array.make k 0 in
  let jobs = ref [] in
  let alloc_words = ref 0.0 and major_gcs = ref 0 and quarantined = ref 0 in
  let job_id = ref 0 in
  let calib = Calib.create () in
  let run_one i on =
    incr job_id;
    (* Every job starts from a collected heap, as in a fresh [csched run]
       process, so the peak resident set does not depend on which jobs
       the seeded order put back to back. Not timed. *)
    Gc.full_major ();
    Calib.measure calib;
    let g0 = Gc.quick_stat () in
    match Inproc.run ~spans ~on ~probe:probes.(i) ~job:!job_id scen.(i) with
    | exception e ->
      Report.check tally false
        (lazy (Inproc.label scen.(i) ^ " raised " ^ Printexc.to_string e))
    | r ->
      if on then begin
        let g1 = Gc.quick_stat () in
        let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
        alloc_words := !alloc_words +. (words g1 -. words g0);
        major_gcs := !major_gcs + (g1.major_collections - g0.major_collections)
      end;
      quarantined := !quarantined + r.Inproc.quarantined;
      Report.check tally (r.valid = Ok ())
        (lazy
          (Inproc.label scen.(i) ^ ": invalid schedule: "
          ^ (match r.valid with Ok () -> "" | Error ps -> String.concat "; " ps)));
      if r.valid = Ok () then
        jobs :=
          { scen = i; traced = on; wall = r.wall; cpu = r.cpu; cycles = r.cycles;
            transfers = r.transfers }
          :: !jobs
  in
  (* Run rounds until [seconds] have passed and every scenario has a
     sample. In the traced run every job is run twice back to back, once
     traced and once untraced in a seeded order, so the two can be
     compared for the tracing overhead under the same conditions. *)
  let stop = Unix.gettimeofday () +. seconds in
  let finished = ref false in
  while not !finished do
    setup ();
    let order = Array.init k Fun.id in
    Cs_util.Rng.shuffle rng order;
    Array.iter
      (fun i ->
        if (not !finished) && Unix.gettimeofday () >= stop && Array.for_all (fun c -> c > 0) count
        then finished := true;
        if not !finished then begin
          (if not traced then run_one i false
           else
             let first = Cs_util.Rng.bool rng in
             run_one i first;
             run_one i (not first));
          count.(i) <- count.(i) + 1
        end)
      order
  done;
  let setup_s = median (List.map fst !setups) and setup_wall_s = median (List.map snd !setups) in
  let facts = !facts in
  let jobs = List.rev !jobs in
  let of_scen i = List.filter (fun j -> j.scen = i) jobs in
  (* every job of one scenario must produce the same schedule *)
  let first = Array.init k (fun i -> List.nth_opt (of_scen i) 0) in
  List.iter
    (fun j ->
      match first.(j.scen) with
      | Some f when (f.cycles, f.transfers) <> (j.cycles, j.transfers) ->
        Report.fail tally
          (Printf.sprintf "%s: schedule differs between jobs (%d/%d vs %d/%d)"
             (Inproc.label scen.(j.scen)) f.cycles f.transfers j.cycles j.transfers)
      | _ -> ())
    jobs;
  let times ?(cpu = false) ~traced i =
    List.filter_map
      (fun j -> if j.traced = traced then Some (if cpu then j.cpu else j.wall) else None)
      (of_scen i)
  in
  let walls ~traced i = times ~traced i in
  (* a round's time: the sum over scenarios of their median job *)
  let round_s ?cpu ~traced () =
    let s = ref 0.0 in
    for i = 0 to k - 1 do
      match times ?cpu ~traced i with [] -> () | l -> s := !s +. median l
    done;
    !s
  in
  (* The decomposed job must be the library pipeline: compare with
     Cs_sim.Pipeline.schedule on the cheapest scenario. *)
  let cheapest =
    let cost i = match walls ~traced:false i with [] -> infinity | l -> median l in
    let best = ref 0 in
    for i = 1 to k - 1 do
      if cost i < cost !best then best := i
    done;
    !best
  in
  (match first.(cheapest) with
  | None -> ()
  | Some f ->
    let cycles, transfers = Inproc.reference scen.(cheapest) in
    Report.check tally
      ((cycles, transfers) = (f.cycles, f.transfers))
      (lazy
        (Printf.sprintf "%s: pipeline gives %d cycles/%d transfers, benchmark job %d/%d"
           (Inproc.label scen.(cheapest)) cycles transfers f.cycles f.transfers)));
  let untraced_round = round_s ~traced:false () in
  (* CPU time at reference speed *)
  let cpu_round = Calib.scale calib *. round_s ~cpu:true ~traced:false () in
  let instrs = Array.fold_left (fun acc f -> acc + f.Inproc.n_instrs) 0 facts in
  let found f = Array.to_list first |> List.filter_map (Option.map f) in
  let untraced = List.filter (fun j -> not j.traced) jobs in
  let lat = List.map (fun j -> 1000.0 *. j.wall) untraced in
  let by_scen_ms = List.init k (fun i -> List.map (fun w -> 1000.0 *. w) (walls ~traced:false i)) in
  let within = List.length (List.filter (fun x -> x <= spec.limit_ms) lat) in
  let end_to_end =
    [ metric "setup_s" "s" (Calib.scale calib *. setup_s);
      metric "cpu_ms_per_op" "ms" (1000.0 *. cpu_round /. float_of_int k);
      metric "instrs_per_cpu_s" "1/s" (float_of_int instrs /. cpu_round);
      metric "ref_kernel_ms" "ms" (Calib.kernel_ms calib);
      metric "setup_wall_s" "s" setup_wall_s;
      metric "instrs_per_s" "1/s" (float_of_int instrs /. untraced_round);
      metric "makespan_cycles_geomean" "cycles"
        (Cs_util.Stats.geomean (found (fun j -> float_of_int j.cycles)));
      metric "peak_rss_mb" "MB" (Fleet.vm_hwm_mb 0);
      metric "latency_ms_p50" "ms" (balanced_pct 50.0 by_scen_ms);
      metric "latency_ms_p90" "ms" (balanced_pct 90.0 by_scen_ms);
      metric "goodput_ratio" "ratio"
        (float_of_int within /. float_of_int (max 1 (List.length untraced)));
      metric "throughput_rps" "1/s" (float_of_int k /. untraced_round) ]
  in
  let per_layer =
    if not traced then []
    else begin
      let n_traced, job_ms, layers = Inproc.layer_ms spans ~keep:(fun _ -> true) in
      let self_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
      let per_job x = x /. float_of_int (max 1 n_traced) in
      List.map (fun (name, v) -> metric name "ms" v) layers
      @ [ metric "core.weights_mb" "MB"
            (Cs_util.Stats.mean (Array.to_list (Array.map (fun f -> f.Inproc.weights_mb) facts)));
          metric "core.quarantined" "count" (float_of_int !quarantined);
          metric "sched.transfers" "count"
            (Cs_util.Stats.mean (found (fun j -> float_of_int j.transfers)));
          metric "runtime.alloc_mb" "MB" (per_job (!alloc_words *. 8.0 /. 1e6));
          metric "runtime.major_gcs" "count" (per_job (float_of_int !major_gcs));
          metric "job.wall_ms" "ms" job_ms;
          metric "trace.self_coverage_ratio" "ratio" (self_sum /. job_ms);
          metric "trace.overhead_ratio" "ratio" (round_s ~traced:true () /. untraced_round) ]
    end
  in
  let details =
    [ ("jobs", int (List.length jobs)); ("latency_samples", int (List.length lat));
      ("limit_ms", num spec.limit_ms);
      ( "scenarios",
        Cs_obs.Json.List
          (Array.to_list
             (Array.mapi
                (fun i s ->
                  Cs_obs.Json.Obj
                    ([ ("scenario", str (Inproc.label s));
                       ("instrs", int facts.(i).Inproc.n_instrs);
                       ("nt", int facts.(i).nt);
                       ("weights_mb", num facts.(i).weights_mb);
                       ("median_ms", num (1000.0 *. median (walls ~traced:false i)));
                       ("jobs", int (List.length (walls ~traced:false i))) ]
                    @
                    match first.(i) with
                    | Some f -> [ ("cycles", int f.cycles); ("transfers", int f.transfers) ]
                    | None -> []))
                scen)) ) ]
  in
  ({ attempted = tally.attempted; failed = tally.failed; problems = List.rev tally.problems;
     end_to_end; per_layer; details }
    : Report.outcome)
