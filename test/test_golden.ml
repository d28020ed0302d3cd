(* Golden-fingerprint oracle for the convergent driver.

   Replays the fuzzer's seed space 0..200 plus the checked-in
   regression corpus and reduces each scenario to one FNV-1a hash over
   everything a run exposes: the emitted schedule text, [Driver.run]'s
   assignment and preferred slots, and every per-pass telemetry sample
   (churn, and mean confidence / mean entropy as raw float bits, so the
   comparison is exact, never epsilon). The hashes must match
   golden_fingerprints.txt line for line; any change to a weight-matrix
   kernel that moves a single bit of W shows up here.

   Scenarios run by a baseline scheduler never touch W and have no
   golden line. To regenerate after an intended behaviour change, run
   [test_golden.exe --print] from the test/ directory and redirect its
   output into golden_fingerprints.txt. *)

open Cs_core

let corpus_dir = "corpus"
let golden_file = "golden_fingerprints.txt"
let seed_lo = 0
let seed_hi = 200

let passes_of_scenario (sc : Cs_check.Scenario.t) machine =
  match sc.Cs_check.Scenario.spec with
  | Cs_check.Scenario.Passes ps -> Some ps
  | Cs_check.Scenario.Baseline Cs_sim.Pipeline.Convergent ->
    Some (Cs_sim.Pipeline.default_passes ~machine)
  | Cs_check.Scenario.Baseline _ -> None

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

(* The driver with a telemetry observer, then the unvalidated pipeline
   for the schedule text; [None] when the scenario never touches W. *)
let fingerprint (sc : Cs_check.Scenario.t) =
  let machine = Cs_check.Scenario.scheduling_machine sc in
  match passes_of_scenario sc machine with
  | None -> None
  | Some passes ->
    let b = Buffer.create 4096 in
    let prev = ref [||] in
    let observe name w =
      let p = if Array.length !prev = 0 then Weights.preferred_clusters w else !prev in
      let m = Telemetry.measure ~prev:p w in
      prev := Weights.preferred_clusters w;
      Printf.bprintf b "pass %s churn %d confidence %Lx entropy %Lx\n" name
        m.Telemetry.churn
        (Int64.bits_of_float m.Telemetry.mean_confidence)
        (Int64.bits_of_float m.Telemetry.mean_entropy)
    in
    let seed = sc.Cs_check.Scenario.seed and region = sc.Cs_check.Scenario.region in
    let r = Driver.run ~seed ~observe ~machine region passes in
    Printf.bprintf b "assignment %s\nslots %s\n" (ints r.Driver.assignment)
      (ints r.Driver.preferred_slot);
    let sched =
      Cs_sim.Pipeline.schedule_raw ~seed ~passes ~scheduler:Cs_sim.Pipeline.Convergent
        ~machine region
    in
    Buffer.add_string b (Format.asprintf "%a" Cs_sched.Schedule.pp sched);
    Some (Printf.sprintf "%016Lx" (Scenario.fnv1a (Buffer.contents b)))

let seed_scenarios lo hi =
  List.init (hi - lo + 1) (fun k ->
      let seed = lo + k in
      (Printf.sprintf "seed %d" seed, Cs_check.Gen.case ~seed))

let corpus_scenarios =
  List.filter_map
    (fun (path, loaded) ->
      match loaded with
      | Error _ -> None (* test_corpus.ml reports parse failures *)
      | Ok r -> Some (Filename.basename path, r.Cs_check.Repro.scenario))
    (Cs_check.Repro.load_dir corpus_dir)

let all_scenarios = seed_scenarios seed_lo seed_hi @ corpus_scenarios

(* "<label> <hex hash>" per line; the label may contain spaces. *)
let golden =
  lazy
    (let tbl = Hashtbl.create 128 in
     In_channel.with_open_text golden_file In_channel.input_all
     |> String.split_on_char '\n'
     |> List.iter (fun line ->
            match String.rindex_opt line ' ' with
            | Some k ->
              Hashtbl.replace tbl (String.sub line 0 k)
                (String.sub line (k + 1) (String.length line - k - 1))
            | None -> ());
     tbl)

let check_scenario (label, sc) =
  let expected = Hashtbl.find_opt (Lazy.force golden) label in
  let got = fingerprint sc in
  Alcotest.(check (option string))
    (Printf.sprintf "%s (%s): fingerprint" label sc.Cs_check.Scenario.label)
    expected got

let fuzz_seed_cases =
  (* One Alcotest case per block of seeds keeps the output readable
     while the check label still names the failing seed. *)
  let block = 25 in
  let rec blocks lo acc =
    if lo > seed_hi then List.rev acc
    else
      let hi = min seed_hi (lo + block - 1) in
      let case =
        Alcotest.test_case (Printf.sprintf "seeds %d..%d" lo hi) `Quick (fun () ->
            List.iter check_scenario (seed_scenarios lo hi))
      in
      blocks (hi + 1) (case :: acc)
  in
  blocks seed_lo []

let corpus_cases =
  List.map
    (fun ((label, _) as s) ->
      Alcotest.test_case label `Quick (fun () -> check_scenario s))
    corpus_scenarios

(* A golden line for a scenario that no longer exists would otherwise
   go unnoticed. *)
let test_no_stale_lines () =
  let labels = List.map fst all_scenarios in
  Hashtbl.iter
    (fun label _ ->
      if not (List.mem label labels) then
        Alcotest.failf "golden line for unknown scenario %S" label)
    (Lazy.force golden)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter
      (fun (label, sc) ->
        Option.iter (Printf.printf "%s %s\n" label) (fingerprint sc))
      all_scenarios
  else
    Alcotest.run "cs_core.golden"
      [
        ("fuzz-seeds", fuzz_seed_cases);
        ("corpus", corpus_cases);
        ("golden", [ Alcotest.test_case "no stale lines" `Quick test_no_stale_lines ]);
      ]
