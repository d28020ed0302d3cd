(* Tests for the differential fuzzing subsystem (lib/check): the
   generator is deterministic, the oracle is clean at HEAD over a seed
   sweep, injected schedule corruptions are caught and minimized to
   tiny repros, and repro files round-trip. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- generator --- *)

let test_gen_deterministic () =
  for seed = 0 to 30 do
    let a = Cs_check.Gen.case ~seed and b = Cs_check.Gen.case ~seed in
    check_bool "label" true (a.Cs_check.Scenario.label = b.Cs_check.Scenario.label);
    check_bool "machine" true
      (a.Cs_check.Scenario.machine.Cs_machine.Machine.name
      = b.Cs_check.Scenario.machine.Cs_machine.Machine.name);
    check_bool "spec" true
      (Cs_check.Scenario.spec_to_string a.Cs_check.Scenario.spec
      = Cs_check.Scenario.spec_to_string b.Cs_check.Scenario.spec);
    check_int "n_instrs"
      (Cs_ddg.Region.n_instrs a.Cs_check.Scenario.region)
      (Cs_ddg.Region.n_instrs b.Cs_check.Scenario.region)
  done

let test_gen_regions_fit_machines () =
  for seed = 0 to 60 do
    let s = Cs_check.Gen.case ~seed in
    check_bool "fits" true
      (Cs_machine.Machine.validate_region s.Cs_check.Scenario.machine
         s.Cs_check.Scenario.region
      = Ok ());
    check_bool "nonempty" true (Cs_ddg.Region.n_instrs s.Cs_check.Scenario.region > 0)
  done

let test_gen_covers_shapes_and_machines () =
  let labels = Hashtbl.create 8 and machines = Hashtbl.create 8 in
  for seed = 0 to 120 do
    let s = Cs_check.Gen.case ~seed in
    Hashtbl.replace labels s.Cs_check.Scenario.label ();
    Hashtbl.replace machines s.Cs_check.Scenario.machine.Cs_machine.Machine.name ()
  done;
  check_bool "several shapes" true (Hashtbl.length labels >= 4);
  check_bool "several machines" true (Hashtbl.length machines >= 5)

let test_gen_degraded_extends_healthy () =
  let damaged = ref 0 and chaotic = ref 0 in
  for seed = 0 to 60 do
    let h = Cs_check.Gen.case ~seed and d = Cs_check.Gen.case_degraded ~seed in
    (* Same base draw: only faults and (possibly) a CHAOS pass differ. *)
    check_bool "same machine" true
      (h.Cs_check.Scenario.machine.Cs_machine.Machine.name
      = d.Cs_check.Scenario.machine.Cs_machine.Machine.name);
    check_int "same region"
      (Cs_ddg.Region.n_instrs h.Cs_check.Scenario.region)
      (Cs_ddg.Region.n_instrs d.Cs_check.Scenario.region);
    check_bool "healthy has no faults" true (h.Cs_check.Scenario.faults = []);
    if d.Cs_check.Scenario.faults <> [] then begin
      incr damaged;
      (* The plan applies, and the degraded machine still fits the region. *)
      let dm = Cs_check.Scenario.scheduling_machine d in
      check_bool "degraded machine valid" true
        (Cs_machine.Machine.validate_region dm d.Cs_check.Scenario.region = Ok ())
    end;
    (match d.Cs_check.Scenario.spec with
    | Cs_check.Scenario.Passes passes
      when List.exists (fun p -> p.Cs_core.Pass.name = "CHAOS") passes ->
      incr chaotic
    | _ -> ())
  done;
  check_bool "fault plans drawn" true (!damaged >= 20);
  check_bool "chaos spliced sometimes" true (!chaotic >= 1)

(* --- oracle at HEAD --- *)

let test_oracle_clean_at_head () =
  let stats, findings = Cs_check.Fuzz.run ~shrink:false ~seeds:(0, 80) () in
  check_int "cases" 81 stats.Cs_check.Fuzz.cases;
  (match findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "seed %d (%s) violated %s: %s" f.Cs_check.Fuzz.seed
      f.Cs_check.Fuzz.label f.Cs_check.Fuzz.check f.Cs_check.Fuzz.detail);
  check_int "violations" 0 stats.Cs_check.Fuzz.violations

let test_oracle_clean_degraded () =
  (* The fallback chain's promise, fuzzed: over degraded machines and
     sabotaged pass sequences, every schedule that comes back satisfies
     every judge (typed refusals are allowed, crashes are not). *)
  let stats, findings =
    Cs_check.Fuzz.run ~shrink:false ~degraded:true ~seeds:(0, 80) ()
  in
  check_int "cases" 81 stats.Cs_check.Fuzz.cases;
  (match findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "degraded seed %d (%s) violated %s: %s" f.Cs_check.Fuzz.seed
      f.Cs_check.Fuzz.label f.Cs_check.Fuzz.check f.Cs_check.Fuzz.detail);
  check_int "violations" 0 stats.Cs_check.Fuzz.violations

let test_fuzz_deterministic_across_domains () =
  let run domains =
    let _, findings =
      Cs_check.Fuzz.run ~domains ~shrink:false
        ~transform:(fun s -> { s with Cs_sched.Schedule.comms = [] })
        ~seeds:(0, 40) ()
    in
    List.map (fun f -> (f.Cs_check.Fuzz.seed, f.Cs_check.Fuzz.check)) findings
  in
  check_bool "same findings" true (run 1 = run 4)

(* --- injected bugs: caught and minimized --- *)

(* Dropping every synthesized transfer models a scheduler that forgets
   communication (or a validator whose comm checks were deleted). *)
let drop_comms s = { s with Cs_sched.Schedule.comms = [] }

let test_injected_bug_caught_and_minimized () =
  let tmp = Filename.temp_file "cs-corpus" "" in
  Sys.remove tmp;
  let stats, findings =
    Cs_check.Fuzz.run ~transform:drop_comms ~corpus_dir:tmp ~shrink_budget:200
      ~seeds:(0, 40) ()
  in
  check_bool "bug found" true (stats.Cs_check.Fuzz.violations > 0);
  List.iter
    (fun f ->
      (* Acceptance bar from the issue: auto-minimized to a tiny repro. *)
      check_bool
        (Printf.sprintf "seed %d shrunk to %d instrs" f.Cs_check.Fuzz.seed
           f.Cs_check.Fuzz.shrunk_instrs)
        true
        (f.Cs_check.Fuzz.shrunk_instrs <= 12);
      (* The written repro file parses and replays cleanly at HEAD (the
         "bug" lives in the transform, not the tree). *)
      match f.Cs_check.Fuzz.repro_path with
      | None -> Alcotest.fail "no repro written"
      | Some path ->
        (match Cs_check.Repro.load path with
        | Error msg -> Alcotest.failf "%s: %s" path msg
        | Ok r ->
          check_bool "records failing check" true (r.Cs_check.Repro.check <> None);
          check_bool "replays Ok at HEAD" true (Cs_check.Repro.replay r = Ok ())))
    findings;
  Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp);
  Sys.rmdir tmp

let test_oracle_catches_late_arrival () =
  (* Shaving a cycle off every transfer's arrival (a skipped hop) must
     trip the validator on any scenario that communicates. *)
  let shave s =
    {
      s with
      Cs_sched.Schedule.comms =
        List.map
          (fun c -> { c with Cs_sched.Schedule.arrive = c.Cs_sched.Schedule.arrive - 1 })
          s.Cs_sched.Schedule.comms;
    }
  in
  let stats, _ = Cs_check.Fuzz.run ~shrink:false ~transform:shave ~seeds:(0, 60) () in
  check_bool "caught" true (stats.Cs_check.Fuzz.violations > 0)

(* --- shrinker --- *)

let test_shrink_isolates_marked_instruction () =
  (* Predicate: the region still contains a store. ddmin should strip
     everything else. *)
  let scenario = Cs_check.Gen.case ~seed:3 in
  let region =
    Cs_workloads.Shapes.layered ~n:60 ~mem_fraction:0.2
      ~congruence:(Cs_workloads.Congruence.interleaved ~n_banks:2)
      ~seed:11 ()
  in
  let scenario = { scenario with Cs_check.Scenario.region } in
  let has_store s =
    Array.exists
      (fun ins -> ins.Cs_ddg.Instr.op = Cs_ddg.Opcode.Store)
      (Cs_ddg.Graph.instrs s.Cs_check.Scenario.region.Cs_ddg.Region.graph)
  in
  check_bool "precondition" true (has_store scenario);
  let outcome = Cs_check.Shrink.minimize ~test:has_store scenario in
  check_bool "minimized to the store alone" true
    (Cs_ddg.Region.n_instrs outcome.Cs_check.Shrink.scenario.Cs_check.Scenario.region <= 2);
  check_bool "still failing" true (has_store outcome.Cs_check.Shrink.scenario)

let test_shrink_keeps_regions_well_formed () =
  let scenario = Cs_check.Gen.case ~seed:17 in
  let outcome =
    Cs_check.Shrink.minimize
      ~test:(fun s ->
        Cs_machine.Machine.validate_region s.Cs_check.Scenario.machine
          s.Cs_check.Scenario.region
        = Ok ())
      scenario
  in
  check_bool "result fits machine" true
    (Cs_machine.Machine.validate_region
       outcome.Cs_check.Shrink.scenario.Cs_check.Scenario.machine
       outcome.Cs_check.Shrink.scenario.Cs_check.Scenario.region
    = Ok ())

(* --- repro round-trip --- *)

let test_repro_roundtrip () =
  for seed = 0 to 20 do
    let scenario = Cs_check.Gen.case ~seed in
    let r = { Cs_check.Repro.scenario; check = Some "validator"; note = Some "note" } in
    match Cs_check.Repro.of_string (Cs_check.Repro.to_string r) with
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
    | Ok r' ->
      check_bool "machine" true
        (r'.Cs_check.Repro.scenario.Cs_check.Scenario.machine.Cs_machine.Machine.name
        = scenario.Cs_check.Scenario.machine.Cs_machine.Machine.name);
      check_bool "spec" true
        (Cs_check.Scenario.spec_to_string r'.Cs_check.Repro.scenario.Cs_check.Scenario.spec
        = Cs_check.Scenario.spec_to_string scenario.Cs_check.Scenario.spec);
      check_int "seed" r'.Cs_check.Repro.scenario.Cs_check.Scenario.seed seed;
      check_int "n_instrs"
        (Cs_ddg.Region.n_instrs r'.Cs_check.Repro.scenario.Cs_check.Scenario.region)
        (Cs_ddg.Region.n_instrs scenario.Cs_check.Scenario.region);
      check_bool "check" true (r'.Cs_check.Repro.check = Some "validator")
  done

let test_repro_roundtrips_faults () =
  (* A degraded scenario's plan survives serialization; a healthy one
     writes no faults header (backward-compatible format). *)
  let rec degraded_seed seed =
    let s = Cs_check.Gen.case_degraded ~seed in
    if s.Cs_check.Scenario.faults <> [] then s else degraded_seed (seed + 1)
  in
  let scenario = degraded_seed 0 in
  let r = { Cs_check.Repro.scenario; check = None; note = None } in
  (match Cs_check.Repro.of_string (Cs_check.Repro.to_string r) with
  | Error msg -> Alcotest.failf "degraded round trip: %s" msg
  | Ok r' ->
    check_bool "faults preserved" true
      (Cs_resil.Fault.to_string r'.Cs_check.Repro.scenario.Cs_check.Scenario.faults
      = Cs_resil.Fault.to_string scenario.Cs_check.Scenario.faults));
  let healthy = Cs_check.Gen.case ~seed:5 in
  let text =
    Cs_check.Repro.to_string
      { Cs_check.Repro.scenario = healthy; check = None; note = None }
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "no faults header when healthy" false (contains text "faults ");
  (* A plan that does not fit the named machine is rejected. *)
  check_bool "bad plan rejected" true
    (Result.is_error
       (Cs_check.Repro.of_string
          "cs-check-repro v1\nmachine vliw-4c\nscheduler baseline:uas\nfaults link=0-1\nseed 0\nregion\nregion r\n"))

let test_repro_rejects_garbage () =
  check_bool "bad magic" true (Result.is_error (Cs_check.Repro.of_string "nonsense"));
  check_bool "bad machine" true
    (Result.is_error
       (Cs_check.Repro.of_string
          "cs-check-repro v1\nmachine warp9\nscheduler baseline:uas\nseed 0\nregion\nregion r\n"))

let test_findings_jsonl_parses () =
  let _, findings =
    Cs_check.Fuzz.run ~transform:drop_comms ~shrink:false ~seeds:(0, 30) ()
  in
  check_bool "has findings" true (findings <> []);
  String.split_on_char '\n' (Cs_check.Fuzz.findings_jsonl findings)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Cs_obs.Json.of_string line with
         | Error msg -> Alcotest.failf "bad JSONL line %S: %s" line msg
         | Ok json ->
           check_bool "has seed" true (Cs_obs.Json.member "seed" json <> None);
           check_bool "has check" true (Cs_obs.Json.member "check" json <> None))

let () =
  Alcotest.run "cs_check"
    [
      ( "gen",
        [ Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "regions fit machines" `Quick test_gen_regions_fit_machines;
          Alcotest.test_case "covers shapes and machines" `Quick
            test_gen_covers_shapes_and_machines;
          Alcotest.test_case "degraded extends healthy" `Quick
            test_gen_degraded_extends_healthy ] );
      ( "oracle",
        [ Alcotest.test_case "clean at HEAD (seeds 0..80)" `Slow test_oracle_clean_at_head;
          Alcotest.test_case "deterministic across domains" `Slow
            test_fuzz_deterministic_across_domains;
          Alcotest.test_case "dropped comms caught + minimized" `Slow
            test_injected_bug_caught_and_minimized;
          Alcotest.test_case "late arrival caught" `Slow test_oracle_catches_late_arrival;
          Alcotest.test_case "clean on degraded machines (seeds 0..80)" `Slow
            test_oracle_clean_degraded ] );
      ( "shrink",
        [ Alcotest.test_case "isolates marked instruction" `Quick
            test_shrink_isolates_marked_instruction;
          Alcotest.test_case "keeps regions well-formed" `Quick
            test_shrink_keeps_regions_well_formed ] );
      ( "repro",
        [ Alcotest.test_case "round-trips" `Quick test_repro_roundtrip;
          Alcotest.test_case "round-trips fault plans" `Quick test_repro_roundtrips_faults;
          Alcotest.test_case "rejects garbage" `Quick test_repro_rejects_garbage;
          Alcotest.test_case "findings export as JSONL" `Quick test_findings_jsonl_parses ] );
    ]
