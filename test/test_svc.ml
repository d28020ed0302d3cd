(* Time robustness and the batch service: anytime early exit,
   per-pass budgets, retry/backoff determinism, checkpoint/resume
   bit-identity, crash-safe writes, and an in-process serve/submit
   loopback. Everything here is bounded — no test may hang runtest. *)

let raw4 = Cs_machine.Raw.with_tiles 4
let vliw4 = Cs_machine.Vliw.create ~n_clusters:4 ()

let region_of machine name =
  match Cs_workloads.Suite.find name with
  | Some e ->
    e.Cs_workloads.Suite.generate ~scale:1
      ~clusters:(Cs_machine.Machine.n_clusters machine) ()
  | None -> Alcotest.failf "missing benchmark %s" name

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- anytime driver ------------------------------------------------ *)

let test_expired_deadline_still_answers () =
  let region = region_of raw4 "jacobi" in
  let deadline = Cs_obs.Clock.now () -. 1.0 in
  match Cs_sim.Pipeline.schedule_resilient ~deadline ~machine:raw4 region with
  | Error e -> Alcotest.failf "expected anytime schedule, got %s" (Cs_resil.Error.to_string e)
  | Ok (sched, outcome) ->
    Alcotest.(check bool) "timed_out recorded" true outcome.Cs_resil.Outcome.timed_out;
    Alcotest.(check bool) "not healthy" false (Cs_resil.Outcome.healthy outcome);
    Alcotest.(check bool) "non-empty schedule" true
      (Cs_sched.Schedule.makespan sched > 0)

let test_expired_deadline_matches_first_pass_only () =
  (* The anytime exit truncates the sequence between passes; with an
     already-expired deadline exactly one pass runs, so the result must
     equal the one-pass run's. *)
  let region = region_of vliw4 "vvmul" in
  let passes = Cs_sim.Pipeline.default_passes ~machine:vliw4 in
  let full =
    Cs_core.Driver.run ~deadline:(Cs_obs.Clock.now () -. 1.0) ~machine:vliw4 region
      passes
  in
  Alcotest.(check bool) "timed_out" true full.Cs_core.Driver.timed_out;
  let one = Cs_core.Driver.run ~machine:vliw4 region [ List.hd passes ] in
  Alcotest.(check (array int)) "assignment = one-pass assignment"
    one.Cs_core.Driver.assignment full.Cs_core.Driver.assignment

let test_no_deadline_never_times_out () =
  let region = region_of raw4 "life" in
  let result =
    Cs_core.Driver.run ~machine:raw4 region (Cs_sim.Pipeline.default_passes ~machine:raw4)
  in
  Alcotest.(check bool) "timed_out" false result.Cs_core.Driver.timed_out

let test_pass_timeout_quarantined () =
  let region = region_of raw4 "sha" in
  let passes =
    Cs_sim.Pipeline.default_passes ~machine:raw4
    @ [ Cs_core.Chaos.slow_pass ~delay_ms:30.0 () ]
  in
  let result =
    Cs_core.Driver.run ~pass_budget_s:0.005 ~machine:raw4 region passes
  in
  let timeouts =
    List.filter
      (fun q ->
        q.Cs_core.Driver.pass_name = "CHAOS"
        && contains q.Cs_core.Driver.reason "pass-timeout")
      result.Cs_core.Driver.quarantined
  in
  Alcotest.(check int) "slow pass quarantined once" 1 (List.length timeouts);
  Alcotest.(check bool) "a budget overrun is not an anytime exit" false
    result.Cs_core.Driver.timed_out

let test_pass_timeout_surfaces_in_outcome () =
  let region = region_of raw4 "sha" in
  let passes =
    Cs_sim.Pipeline.default_passes ~machine:raw4
    @ [ Cs_core.Chaos.slow_pass ~delay_ms:30.0 () ]
  in
  match
    Cs_sim.Pipeline.schedule_resilient ~passes ~pass_budget_s:0.005 ~machine:raw4 region
  with
  | Error e -> Alcotest.failf "expected schedule, got %s" (Cs_resil.Error.to_string e)
  | Ok (_, outcome) ->
    Alcotest.(check bool) "quarantine visible to caller" true
      (List.exists
         (fun (name, reason) ->
           name = "CHAOS" && contains reason "pass-timeout")
         outcome.Cs_resil.Outcome.quarantined)

(* --- retry --------------------------------------------------------- *)

let test_retry_delays_deterministic () =
  let policy = { Cs_svc.Retry.default with max_attempts = 5; seed = 99 } in
  let a = Cs_svc.Retry.delays policy and b = Cs_svc.Retry.delays policy in
  Alcotest.(check int) "n delays" 4 (List.length a);
  Alcotest.(check (list (float 0.0))) "same policy, same schedule" a b;
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "delay %d in jitter band" i) true
        (let base = policy.base_delay_s *. (policy.multiplier ** float_of_int i) in
         d >= base *. 0.5 -. 1e-9 && d <= base *. 1.5 +. 1e-9))
    a

let test_retry_sleeps_recorded_schedule () =
  let policy = { Cs_svc.Retry.default with max_attempts = 3 } in
  let slept = ref [] in
  let calls = ref 0 in
  let result =
    Cs_svc.Retry.run ~policy
      ~sleep:(fun d -> slept := d :: !slept)
      (fun ~attempt ->
        incr calls;
        if attempt < 3 then Error (Cs_resil.Error.Pass_failure "flaky") else Ok attempt)
  in
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check (list (float 0.0))) "slept the published schedule"
    (Cs_svc.Retry.delays policy) (List.rev !slept);
  match result with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "expected Ok on third attempt"

let test_retry_gives_up_and_skips_permanent () =
  let policy = { Cs_svc.Retry.default with max_attempts = 3 } in
  let no_sleep _ = () in
  let calls = ref 0 in
  (match
     Cs_svc.Retry.run ~policy ~sleep:no_sleep (fun ~attempt:_ ->
         incr calls;
         Error (Cs_resil.Error.Pass_failure "always"))
   with
  | Error (Cs_resil.Error.Pass_failure _) -> ()
  | _ -> Alcotest.fail "expected the last error back");
  Alcotest.(check int) "transient retried to exhaustion" 3 !calls;
  calls := 0;
  (match
     Cs_svc.Retry.run ~policy ~sleep:no_sleep (fun ~attempt:_ ->
         incr calls;
         Error (Cs_resil.Error.Infeasible "permanent"))
   with
  | Error (Cs_resil.Error.Infeasible _) -> ()
  | _ -> Alcotest.fail "expected the permanent error back");
  Alcotest.(check int) "permanent not retried" 1 !calls

(* --- crash-safe writes --------------------------------------------- *)

let test_fsio_atomic_write_roundtrip () =
  let path = tmp_path "cs_svc_fsio_test.txt" in
  Cs_util.Fsio.write_atomic ~path "first\n";
  Alcotest.(check (option string)) "written" (Some "first\n") (Cs_util.Fsio.read_opt path);
  Cs_util.Fsio.write_atomic ~path "second\n";
  Alcotest.(check (option string)) "overwritten" (Some "second\n")
    (Cs_util.Fsio.read_opt path);
  let dir = Filename.dirname path and base = Filename.basename path in
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> f <> base && contains f base)
  in
  Alcotest.(check (list string)) "no temp files left behind" [] leftovers;
  Sys.remove path;
  Alcotest.(check (option string)) "missing file reads None" None
    (Cs_util.Fsio.read_opt path)

(* --- GA checkpoint/resume ------------------------------------------ *)

let small_params =
  { Cs_tuner.Ga.default_params with population = 6; generations = 4; seed = 11 }

let small_fit () =
  match Cs_workloads.Suite.find "vvmul" with
  | Some e -> Cs_tuner.Fitness.make ~scale:1 ~machine:vliw4 [ e ]
  | None -> Alcotest.fail "vvmul missing"

let test_ga_resume_bit_identical () =
  let straight = Cs_tuner.Ga.run small_params (small_fit ()) in
  let snap = ref None in
  let _interrupted =
    (* capture the snapshot after generation 2, as a crash would *)
    Cs_tuner.Ga.run
      ~checkpoint:(fun s -> if s.Cs_tuner.Ga.gen_done = 2 then snap := Some s)
      small_params (small_fit ())
  in
  match !snap with
  | None -> Alcotest.fail "checkpoint callback never fired"
  | Some s ->
    let resumed = Cs_tuner.Ga.run ~resume:s small_params (small_fit ()) in
    Alcotest.(check string) "best genome bit-identical"
      (Cs_tuner.Genome.to_string straight.Cs_tuner.Ga.best)
      (Cs_tuner.Genome.to_string resumed.Cs_tuner.Ga.best);
    Alcotest.(check bool) "best fitness bit-identical" true
      (straight.Cs_tuner.Ga.best_fitness = resumed.Cs_tuner.Ga.best_fitness);
    Alcotest.(check (array (float 0.0))) "history bit-identical"
      straight.Cs_tuner.Ga.history resumed.Cs_tuner.Ga.history;
    Alcotest.(check bool) "resumed run completed" true resumed.Cs_tuner.Ga.completed

let test_ga_checkpoint_file_roundtrip () =
  let snap = ref None in
  let _ =
    Cs_tuner.Ga.run
      ~checkpoint:(fun s -> if s.Cs_tuner.Ga.gen_done = 2 then snap := Some s)
      small_params (small_fit ())
  in
  let s = Option.get !snap in
  let path = tmp_path "cs_svc_ga_ck.json" in
  Cs_tuner.Checkpoint.save ~path s;
  (match Cs_tuner.Checkpoint.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok s' ->
    Alcotest.(check int) "gen_done" s.Cs_tuner.Ga.gen_done s'.Cs_tuner.Ga.gen_done;
    Alcotest.(check bool) "rng state exact" true
      (Int64.equal s.Cs_tuner.Ga.rng_state s'.Cs_tuner.Ga.rng_state);
    Alcotest.(check bool) "best fitness exact" true
      (s.Cs_tuner.Ga.snap_best_fitness = s'.Cs_tuner.Ga.snap_best_fitness);
    Alcotest.(check (array string)) "population exact"
      (Array.map Cs_tuner.Genome.to_string s.Cs_tuner.Ga.population)
      (Array.map Cs_tuner.Genome.to_string s'.Cs_tuner.Ga.population);
    (* the loaded snapshot must continue exactly like the in-memory one *)
    let a = Cs_tuner.Ga.run ~resume:s small_params (small_fit ()) in
    let b = Cs_tuner.Ga.run ~resume:s' small_params (small_fit ()) in
    Alcotest.(check string) "continuations agree"
      (Cs_tuner.Genome.to_string a.Cs_tuner.Ga.best)
      (Cs_tuner.Genome.to_string b.Cs_tuner.Ga.best));
  Sys.remove path

let test_ga_deadline_reports_budget_exhausted () =
  let outcome =
    Cs_tuner.Ga.run ~deadline:(Cs_obs.Clock.now ()) small_params (small_fit ())
  in
  Alcotest.(check bool) "stopped early" true
    (outcome.Cs_tuner.Ga.generations_run < small_params.Cs_tuner.Ga.generations);
  Alcotest.(check bool) "not completed" false outcome.Cs_tuner.Ga.completed;
  Alcotest.(check bool) "still made progress" true
    (outcome.Cs_tuner.Ga.generations_run >= 1)

(* --- fuzz journal resume ------------------------------------------- *)

(* Sabotage every schedule so the oracle reliably produces findings. *)
let break_schedule s = Cs_sched.Schedule.map_clusters (fun _ -> 0) s

let journal_dir name =
  tmp_path (Printf.sprintf "cs_svc_%s_%d" name (Unix.getpid ()))

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let open_journal ?resume ?degraded ~dir seeds =
  match Cs_check.Journal.open_dir ?resume ~dir ?degraded ~seeds () with
  | Ok j -> j
  | Error e -> Alcotest.failf "journal did not open: %s" e

let fuzz_run ?journal seeds =
  Cs_check.Fuzz.run ~shrink:false ~transform:break_schedule ?journal ~seeds ()

let sig_of f =
  Printf.sprintf "%d/%s/%s" f.Cs_check.Fuzz.seed f.Cs_check.Fuzz.label
    f.Cs_check.Fuzz.check

let test_fuzz_journal_resume_identical () =
  let seeds = (0, 30) in
  let dir = journal_dir "fuzz_journal" in
  let stats_fresh, found_fresh = fuzz_run seeds in
  Alcotest.(check bool) "transform produces findings" true (found_fresh <> []);
  (* First journaled run covers everything; resuming it replays the
     journal without re-searching and must reproduce the findings. *)
  let j = open_journal ~dir seeds in
  let stats_j, found_j = fuzz_run ~journal:j seeds in
  Cs_check.Journal.close j;
  Alcotest.(check int) "journaled run sees all cases" stats_fresh.Cs_check.Fuzz.cases
    stats_j.Cs_check.Fuzz.cases;
  let resumed = open_journal ~resume:true ~dir seeds in
  Alcotest.(check bool) "every seed journaled" true
    (List.for_all (Cs_check.Journal.is_done resumed) (List.init 31 Fun.id));
  let stats_r, found_r = fuzz_run ~journal:resumed seeds in
  Cs_check.Journal.close resumed;
  Alcotest.(check int) "resumed covers all cases" stats_fresh.Cs_check.Fuzz.cases
    stats_r.Cs_check.Fuzz.cases;
  Alcotest.(check bool) "resumed run completed" true stats_r.Cs_check.Fuzz.completed;
  Alcotest.(check (list string)) "journaled findings identical"
    (List.map sig_of found_fresh) (List.map sig_of found_j);
  Alcotest.(check (list string)) "resumed findings identical"
    (List.map sig_of found_fresh) (List.map sig_of found_r);
  remove_dir dir

let test_fuzz_journal_mismatch_starts_fresh () =
  let dir = journal_dir "fuzz_journal2" in
  let j = open_journal ~dir (0, 10) in
  Cs_check.Journal.record j ~chunk:(0, 10) ~violations:[];
  Cs_check.Journal.close j;
  let reopened = open_journal ~resume:true ~dir (0, 10) in
  Alcotest.(check bool) "matching journal resumes" true
    (Cs_check.Journal.is_done reopened 5);
  Cs_check.Journal.close reopened;
  (* different seed range or degraded flag -> the old journal must not
     poison the run *)
  let j' = open_journal ~resume:true ~degraded:true ~dir (0, 10) in
  Alcotest.(check bool) "degraded mismatch discarded" false (Cs_check.Journal.is_done j' 5);
  Cs_check.Journal.close j';
  let j'' = open_journal ~resume:true ~dir (0, 20) in
  Alcotest.(check bool) "mismatched journal discarded" false
    (Cs_check.Journal.is_done j'' 5);
  Cs_check.Journal.close j'';
  remove_dir dir

(* A SIGKILL mid-append leaves the last chunk record torn: the resumed
   run loses exactly that chunk, reruns it, and still matches an
   uninterrupted run. Seeds 0..30 on one domain run in chunks of three,
   so the last record is the chunk [30, 30]. *)
let test_fuzz_journal_torn_tail () =
  let seeds = (0, 30) in
  let dir = journal_dir "fuzz_journal_torn" in
  let _, found_fresh = fuzz_run seeds in
  let j = open_journal ~dir seeds in
  ignore (fuzz_run ~journal:j seeds);
  Cs_check.Journal.close j;
  let segment = Filename.concat dir "wal-000000.log" in
  let size = (Unix.stat segment).Unix.st_size in
  Unix.truncate segment (size - 2);
  let resumed = open_journal ~resume:true ~dir seeds in
  Alcotest.(check bool) "torn chunk lost" false (Cs_check.Journal.is_done resumed 30);
  Alcotest.(check bool) "earlier chunks kept" true
    (List.for_all (Cs_check.Journal.is_done resumed) (List.init 30 Fun.id));
  let stats_r, found_r = fuzz_run ~journal:resumed seeds in
  Cs_check.Journal.close resumed;
  Alcotest.(check bool) "resumed run completed" true stats_r.Cs_check.Fuzz.completed;
  Alcotest.(check (list string)) "findings identical after a torn tail"
    (List.map sig_of found_fresh) (List.map sig_of found_r);
  remove_dir dir

let test_fuzz_journal_unusable_dir () =
  let file = journal_dir "fuzz_journal_file" in
  Out_channel.with_open_text file (fun oc -> output_string oc "not a directory\n");
  (match Cs_check.Journal.open_dir ~dir:file ~seeds:(0, 3) () with
  | Ok _ -> Alcotest.fail "a regular file cannot hold a journal"
  | Error msg ->
    Alcotest.(check bool) "error names the path" true (contains msg file));
  Sys.remove file

(* --- bounded queue ------------------------------------------------- *)

let test_squeue_bounds_and_order () =
  let q = Cs_svc.Squeue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Cs_svc.Squeue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Cs_svc.Squeue.try_push q 2);
  Alcotest.(check bool) "push 3 shed" false (Cs_svc.Squeue.try_push q 3);
  Alcotest.(check (option int)) "fifo" (Some 1) (Cs_svc.Squeue.pop q);
  Alcotest.(check bool) "slot freed" true (Cs_svc.Squeue.try_push q 4);
  Cs_svc.Squeue.close q;
  Alcotest.(check bool) "closed refuses" false (Cs_svc.Squeue.try_push q 5);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Cs_svc.Squeue.pop q);
  Alcotest.(check (option int)) "drain 4" (Some 4) (Cs_svc.Squeue.pop q);
  Alcotest.(check (option int)) "closed+empty ends" None (Cs_svc.Squeue.pop q)

let test_squeue_concurrent_producers_consumers () =
  let q = Cs_svc.Squeue.create ~capacity:4 in
  let produced = 200 in
  let seen = Atomic.make 0 in
  let consumers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Cs_svc.Squeue.pop q with
              | Some _ ->
                Atomic.incr seen;
                loop ()
              | None -> ()
            in
            loop ()))
  in
  let rec push n =
    if n > 0 then
      if Cs_svc.Squeue.try_push q n then push (n - 1)
      else begin
        Domain.cpu_relax ();
        push n
      end
  in
  push produced;
  Cs_svc.Squeue.close q;
  List.iter Domain.join consumers;
  Alcotest.(check int) "every item consumed exactly once" produced (Atomic.get seen)

(* The shed bound must hold exactly under racing producers: with no
   consumer, precisely [capacity] of the competing pushes may win, no
   matter how the domains interleave. *)
let test_squeue_sheds_at_exact_capacity_concurrently () =
  let capacity = 8 in
  let producers = 4 and per_producer = 50 in
  let q = Cs_svc.Squeue.create ~capacity in
  let accepted = Atomic.make 0 in
  let go = Atomic.make false in
  let domains =
    List.init producers (fun d ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            for i = 0 to per_producer - 1 do
              if Cs_svc.Squeue.try_push q ((d * per_producer) + i) then
                Atomic.incr accepted
            done))
  in
  Atomic.set go true;
  List.iter Domain.join domains;
  Alcotest.(check int) "exactly capacity pushes won" capacity (Atomic.get accepted);
  Alcotest.(check int) "queue holds exactly capacity" capacity (Cs_svc.Squeue.length q);
  Cs_svc.Squeue.close q;
  let drained = ref 0 in
  let rec drain () =
    match Cs_svc.Squeue.pop q with
    | Some _ ->
      incr drained;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "winners all drain back out" capacity !drained

(* --- transport addresses ------------------------------------------- *)

let test_transport_parse_edge_cases () =
  (* a colon without a numeric port is neither TCP nor a sane path *)
  (match Cs_svc.Transport.parse "host:" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing colon with no port must error");
  (match Cs_svc.Transport.parse "host:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative port must error");
  (* the LAST colon splits host from port, so colon-bearing hosts work *)
  (match Cs_svc.Transport.parse "::1:7100" with
  | Ok (Cs_svc.Transport.Tcp { host = "::1"; port = 7100 }) -> ()
  | _ -> Alcotest.fail "IPv6-ish host should split on the last colon");
  (* surrounding whitespace is operator noise, not address *)
  (match Cs_svc.Transport.parse "  127.0.0.1:7100  " with
  | Ok (Cs_svc.Transport.Tcp { host = "127.0.0.1"; port = 7100 }) -> ()
  | _ -> Alcotest.fail "whitespace should be trimmed");
  (match Cs_svc.Transport.parse "   " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "all-whitespace address must error")

let test_transport_port_zero_resolves () =
  (* port 0 asks the kernel for an ephemeral port; bound_addr must
     report the real one so clients can actually connect *)
  let addr = Cs_svc.Transport.parse_exn "127.0.0.1:0" in
  let fd = Cs_svc.Transport.listen addr in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Cs_svc.Transport.bound_addr fd addr with
      | Cs_svc.Transport.Tcp { port; _ } ->
        Alcotest.(check bool) "kernel-assigned port" true (port > 0)
      | Cs_svc.Transport.Unix_path _ -> Alcotest.fail "TCP bind stayed TCP")

(* --- protocol ------------------------------------------------------ *)

let test_proto_request_roundtrip () =
  let r =
    Cs_svc.Proto.request ~id:"j1" ~machine:"vliw4" ~scheduler:"uas" ~scale:2
      ~deadline_ms:50.0 ~passes:"INITTIME,PLACE" ~seed:7 "mxm"
  in
  match Cs_svc.Proto.request_of_line (Cs_svc.Proto.request_to_line r) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check string) "id" r.Cs_svc.Proto.id r'.Cs_svc.Proto.id;
    Alcotest.(check string) "bench" r.Cs_svc.Proto.bench r'.Cs_svc.Proto.bench;
    Alcotest.(check string) "machine" r.Cs_svc.Proto.machine r'.Cs_svc.Proto.machine;
    Alcotest.(check int) "scale" r.Cs_svc.Proto.scale r'.Cs_svc.Proto.scale;
    Alcotest.(check (option (float 0.0))) "deadline" r.Cs_svc.Proto.deadline_ms
      r'.Cs_svc.Proto.deadline_ms;
    Alcotest.(check (option string)) "passes" r.Cs_svc.Proto.passes r'.Cs_svc.Proto.passes;
    Alcotest.(check (option int)) "seed" r.Cs_svc.Proto.seed r'.Cs_svc.Proto.seed

let test_proto_reply_roundtrip () =
  let ok =
    { Cs_svc.Proto.reply_id = "j1"; elapsed_ms = 12.5;
      verdict =
        Cs_svc.Proto.Scheduled
          { cycles = 42; transfers = 7; rung = "requested"; timed_out = true;
            quarantined = 1 };
      queue_depth = Some 3; cached = true }
  in
  (match Cs_svc.Proto.reply_of_line (Cs_svc.Proto.reply_to_line ok) with
  | Ok r when r = ok -> ()
  | Ok _ -> Alcotest.fail "ok reply mutated in roundtrip"
  | Error e -> Alcotest.failf "ok roundtrip failed: %s" e);
  let refused =
    Cs_svc.Proto.refused ~elapsed_ms:1.0 ~id:"j2"
      (Cs_resil.Error.Deadline_exceeded "too slow")
  in
  match Cs_svc.Proto.reply_of_line (Cs_svc.Proto.reply_to_line refused) with
  | Ok r when r = refused -> ()
  | Ok _ -> Alcotest.fail "refused reply mutated in roundtrip"
  | Error e -> Alcotest.failf "refused roundtrip failed: %s" e

let test_proto_idem_key_roundtrip () =
  let r = Cs_svc.Proto.request ~id:"j1" ~idem_key:"retry-abc" "fir" in
  (match Cs_svc.Proto.request_of_line (Cs_svc.Proto.request_to_line r) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check (option string)) "idem_key survives the wire"
      (Some "retry-abc") r'.Cs_svc.Proto.idem_key);
  match
    Cs_svc.Proto.request_of_line
      (Cs_svc.Proto.request_to_line (Cs_svc.Proto.request ~id:"j2" "fir"))
  with
  | Error e -> Alcotest.failf "keyless roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check (option string)) "absent key stays absent" None
      r'.Cs_svc.Proto.idem_key

let test_proto_heartbeat_roundtrip () =
  let hb =
    { Cs_svc.Proto.hb_shard = "127.0.0.1:7040"; hb_depth = 3; hb_busy = 2;
      hb_workers = 4; hb_completed = 99 }
  in
  (match Cs_svc.Proto.incoming_of_line (Cs_svc.Proto.heartbeat_line hb) with
  | Ok (Cs_svc.Proto.Heartbeat hb') ->
    Alcotest.(check string) "shard" hb.Cs_svc.Proto.hb_shard hb'.Cs_svc.Proto.hb_shard;
    Alcotest.(check int) "depth" hb.Cs_svc.Proto.hb_depth hb'.Cs_svc.Proto.hb_depth;
    Alcotest.(check int) "busy" hb.Cs_svc.Proto.hb_busy hb'.Cs_svc.Proto.hb_busy;
    Alcotest.(check int) "workers" hb.Cs_svc.Proto.hb_workers
      hb'.Cs_svc.Proto.hb_workers;
    Alcotest.(check int) "completed" hb.Cs_svc.Proto.hb_completed
      hb'.Cs_svc.Proto.hb_completed
  | Ok _ -> Alcotest.fail "heartbeat line classified as something else"
  | Error e -> Alcotest.failf "heartbeat roundtrip failed: %s" e);
  (* forward compat: load-vector fields are optional, the shard name is not *)
  (match
     Cs_svc.Proto.incoming_of_line "{\"op\":\"heartbeat\",\"shard\":\"s1\"}"
   with
  | Ok (Cs_svc.Proto.Heartbeat hb') ->
    Alcotest.(check int) "missing depth defaults to 0" 0 hb'.Cs_svc.Proto.hb_depth
  | _ -> Alcotest.fail "minimal heartbeat should parse");
  match Cs_svc.Proto.incoming_of_line "{\"op\":\"heartbeat\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "heartbeat without a shard name must be rejected"

let test_proto_malformed_line () =
  (match Cs_svc.Proto.request_of_line "{not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Cs_svc.Proto.request_of_line "{\"id\":\"x\"}" with
  | Error _ -> () (* bench missing *)
  | Ok _ -> Alcotest.fail "bench-less request accepted"

(* --- job runner ---------------------------------------------------- *)

let test_job_refusals_are_typed () =
  let run req = Cs_svc.Job.run (Cs_svc.Job.admit req) in
  (match (run (Cs_svc.Proto.request "no-such-bench")).Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "unknown bench kind" "invalid-input" e.kind
  | _ -> Alcotest.fail "unknown bench must refuse");
  (match
     (run (Cs_svc.Proto.request ~machine:"raw0" "jacobi")).Cs_svc.Proto.verdict
   with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "unknown machine kind" "invalid-input" e.kind
  | _ -> Alcotest.fail "unknown machine must refuse");
  match
    (Cs_svc.Job.run (Cs_svc.Job.admit (Cs_svc.Proto.request ~deadline_ms:0.0 "jacobi")))
      .Cs_svc.Proto.verdict
  with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "expired-in-queue kind" "deadline-exceeded"
      e.kind
  | _ -> Alcotest.fail "expired deadline must refuse"

let test_job_schedules_with_deadline () =
  let req = Cs_svc.Proto.request ~id:"ok" ~machine:"raw4" ~deadline_ms:10_000.0 "sha" in
  match (Cs_svc.Job.run (Cs_svc.Job.admit req)).Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Scheduled s ->
    Alcotest.(check bool) "cycles positive" true (s.cycles > 0)
  | Cs_svc.Proto.Refused e ->
    Alcotest.failf "healthy job refused: %s %s" e.kind e.message

(* Canonical keys as gateway caches and journals already on disk hold
   them, so no key may move. Aliases of one machine share one key; the
   raw-4x4 and vliw-4c rows are new spellings of existing keys. *)
let key_rows =
  let r = Cs_svc.Proto.request in
  [ ("fir raw16", r ~machine:"raw16" "fir", "1c3661fa4cd2a6c2");
    ("fir RAW16", r ~machine:"RAW16" "fir", "1c3661fa4cd2a6c2");
    ("fir raw-4x4", r ~machine:"raw-4x4" "fir", "1c3661fa4cd2a6c2");
    ("fir vliw", r ~machine:"vliw" "fir", "1aa5c706a7f7e083");
    ("fir vliw4", r ~machine:"vliw4" "fir", "1aa5c706a7f7e083");
    ("fir vliw-4c", r ~machine:"vliw-4c" "fir", "1aa5c706a7f7e083");
    ("fir vliw4 seed 3", r ~machine:"vliw4" ~seed:3 "fir", "d03d0e79e3f514d9");
    ("sha raw4 passes", r ~machine:"raw4" ~passes:"INITTIME,PLACE,COMM" "sha",
     "a21b9bafeb386bad");
    ("sha raw4 passes seed 7",
     r ~machine:"raw4" ~passes:"INITTIME,PLACE,COMM" ~seed:7 "sha", "4162cbd3a750e69f");
    ("mxm raw16 uas scale 2", r ~machine:"raw16" ~scheduler:"uas" ~scale:2 "mxm",
     "55f887f9b2947da9");
    ("jacobi vliw2 seed 0", r ~machine:"vliw2" ~seed:0 "jacobi", "03aa5b878987caed");
    ("id and deadline do not enter",
     r ~id:"x" ~deadline_ms:5.0 ~machine:"raw16" "fir", "1c3661fa4cd2a6c2") ]

let test_job_keys_pinned () =
  List.iter
    (fun (row, req, expected) ->
      match Cs_svc.Job.resolve req with
      | Ok resolved -> Alcotest.(check string) row expected (Cs_svc.Job.key resolved)
      | Error e -> Alcotest.failf "%s: %s" row (Cs_resil.Error.to_string e))
    key_rows

(* --- serve/submit loopback ----------------------------------------- *)

let with_server cfg f =
  let server = Cs_svc.Server.create cfg in
  let runner = Domain.spawn (fun () -> Cs_svc.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Cs_svc.Server.stop server;
      Domain.join runner)
    (fun () -> f server)

let test_serve_mixed_batch () =
  let socket = tmp_path (Printf.sprintf "cs_svc_test_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:2 ~queue_capacity:8 socket in
  let replies =
    with_server cfg (fun _ ->
        let jobs =
          [ Cs_svc.Proto.request ~id:"good" ~machine:"raw4" ~deadline_ms:30_000.0 "jacobi";
            Cs_svc.Proto.request ~id:"late" ~deadline_ms:0.0 "mxm";
            Cs_svc.Proto.request ~id:"bogus" "no-such-bench" ]
        in
        match
          Cs_svc.Client.submit ~timeout_s:60.0
            ~addr:(Cs_svc.Transport.parse_exn socket) jobs
        with
        | Error e -> Alcotest.failf "submit failed: %s" e
        | Ok replies -> replies)
  in
  Alcotest.(check int) "every job answered" 3 (List.length replies);
  let find id =
    List.find (fun r -> r.Cs_svc.Proto.reply_id = id) replies
  in
  (match (find "good").Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Scheduled s ->
    Alcotest.(check bool) "scheduled" true (s.cycles > 0)
  | Cs_svc.Proto.Refused e -> Alcotest.failf "good job refused: %s" e.message);
  (match (find "late").Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "typed deadline refusal" "deadline-exceeded"
      e.kind
  | _ -> Alcotest.fail "impossible deadline must be refused");
  match (find "bogus").Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Refused e ->
    Alcotest.(check string) "typed invalid-input refusal" "invalid-input"
      e.kind
  | _ -> Alcotest.fail "unknown bench must be refused"

let test_serve_sheds_when_overloaded () =
  let socket = tmp_path (Printf.sprintf "cs_svc_shed_%d.sock" (Unix.getpid ())) in
  (* one worker stalled 200 ms per job behind a one-slot queue: of six
     pipelined jobs at most two can be in flight, the rest must shed *)
  let cfg =
    Cs_svc.Server.config ~workers:1 ~queue_capacity:1 ~chaos_slow_ms:200.0 socket
  in
  let replies, stats =
    with_server cfg (fun server ->
        let jobs =
          List.init 6 (fun i ->
              Cs_svc.Proto.request ~id:(Printf.sprintf "j%d" i) ~machine:"raw4"
                ~deadline_ms:30_000.0 "fir")
        in
        match
          Cs_svc.Client.submit ~timeout_s:60.0
            ~addr:(Cs_svc.Transport.parse_exn socket) jobs
        with
        | Error e -> Alcotest.failf "submit failed: %s" e
        | Ok replies -> (replies, Cs_svc.Server.stats server))
  in
  Alcotest.(check int) "every job answered" 6 (List.length replies);
  let shed =
    List.filter
      (fun r ->
        match r.Cs_svc.Proto.verdict with
        | Cs_svc.Proto.Refused e -> e.kind = "overloaded"
        | _ -> false)
      replies
  in
  Alcotest.(check bool) "bounded queue shed typed refusals" true
    (List.length shed >= 3);
  Alcotest.(check int) "stats agree with replies" (List.length shed)
    stats.Cs_svc.Server.shed

let test_serve_metrics_verb () =
  let module M = Cs_obs.Metrics in
  let socket = tmp_path (Printf.sprintf "cs_svc_metrics_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:2 socket in
  with_server cfg (fun _ ->
      let addr = Cs_svc.Transport.parse_exn socket in
      let jobs =
        List.init 3 (fun i ->
            Cs_svc.Proto.request ~id:(Printf.sprintf "m%d" i) ~machine:"raw4" ~seed:i
              "fir")
      in
      (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr jobs with
      | Ok rs -> Alcotest.(check int) "all answered" 3 (List.length rs)
      | Error e -> Alcotest.failf "submit failed: %s" e);
      (match Cs_svc.Client.fetch_metrics ~addr () with
      | Error e -> Alcotest.failf "metrics verb failed: %s" e
      | Ok (Cs_svc.Proto.Prom_text _) -> Alcotest.fail "asked for json, got prometheus"
      | Ok (Cs_svc.Proto.Snapshot snap) ->
        let counter name =
          match M.find snap name with Some (M.Counter_v v) -> v | _ -> -1
        in
        Alcotest.(check int) "admitted counter" 3 (counter "csched_jobs_admitted_total");
        Alcotest.(check int) "completed counter" 3
          (counter "csched_jobs_completed_total");
        Alcotest.(check int) "no refusals" 0 (counter "csched_jobs_refused_total");
        (match M.find snap "csched_workers" with
        | Some (M.Gauge_v v) -> Alcotest.(check bool) "workers gauge" true (v = 2.0)
        | _ -> Alcotest.fail "workers gauge missing");
        match M.find snap "csched_job_latency_ms" with
        | Some (M.Histo_v h) ->
          Alcotest.(check int) "one latency sample per job" 3 (M.total h);
          Alcotest.(check bool) "p99 estimate positive" true (M.quantile h 99.0 > 0.0)
        | _ -> Alcotest.fail "latency histogram missing");
      match Cs_svc.Client.fetch_metrics ~format:Cs_svc.Proto.Metrics_prometheus ~addr ()
      with
      | Ok (Cs_svc.Proto.Prom_text text) ->
        Alcotest.(check bool) "prometheus rendering carries the counter" true
          (List.mem "csched_jobs_admitted_total 3" (String.split_on_char '\n' text))
      | Ok (Cs_svc.Proto.Snapshot _) -> Alcotest.fail "asked for prometheus, got json"
      | Error e -> Alcotest.failf "prometheus fetch failed: %s" e)

let test_serve_stop_is_clean_and_idempotent () =
  let socket = tmp_path (Printf.sprintf "cs_svc_stop_%d.sock" (Unix.getpid ())) in
  let cfg = Cs_svc.Server.config ~workers:1 socket in
  with_server cfg (fun server ->
      (* submit one job so drain has something to finish *)
      (match
         Cs_svc.Client.submit ~timeout_s:60.0 ~addr:(Cs_svc.Transport.parse_exn socket)
           [ Cs_svc.Proto.request ~id:"x" ~machine:"raw4" "life" ]
       with
      | Ok [ _ ] -> ()
      | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
      | Error e -> Alcotest.failf "submit failed: %s" e);
      Cs_svc.Server.stop server;
      Cs_svc.Server.stop server);
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists socket)

(* --- connection robustness ------------------------------------------ *)

let ping_answered addr =
  match Cs_svc.Client.fetch_stats ~timeout_s:2.0 ~addr () with
  | Ok _ -> true
  | Error _ -> false

(* A client that hangs up before its reply must cost the server nothing
   but a failed write. The job line goes out through a raw write so
   this test installs no SIGPIPE handling of its own. *)
let test_serve_survives_client_gone_before_reply () =
  let socket = tmp_path (Printf.sprintf "cs_svc_gone_%d.sock" (Unix.getpid ())) in
  let addr = Cs_svc.Transport.parse_exn socket in
  with_server (Cs_svc.Server.config ~workers:1 socket) (fun server ->
      let fd = Cs_svc.Transport.connect addr in
      let line =
        Cs_svc.Proto.request_to_line
          (Cs_svc.Proto.request ~id:"gone" ~machine:"raw4" "sha")
        ^ "\n"
      in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.close fd;
      let deadline = Unix.gettimeofday () +. 30.0 in
      while
        (Cs_svc.Server.stats server).Cs_svc.Server.completed < 1
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.01
      done;
      Alcotest.(check int) "job ran to completion" 1
        (Cs_svc.Server.stats server).Cs_svc.Server.completed;
      (* the reply write to the vanished client happens right after the
         completion count; give it time to land before probing *)
      Unix.sleepf 0.2;
      Alcotest.(check bool) "ping answered after the failed reply" true
        (ping_answered addr))

(* More idle connections than OCaml allows domains (128): the readers
   that cannot be spawned cost their connection, never the server. Each
   connection pings first, so the server has accepted it before the
   next one opens; past the limit the ping meets EOF or a closed socket
   (EPIPE on the write) instead of a pong, and once one goes unanswered
   the rest just connect. Whatever happens, the connections are closed
   and the server stopped, so no domain outlives the test. *)
let test_serve_survives_domain_limit () =
  let socket = tmp_path (Printf.sprintf "cs_svc_idle_%d.sock" (Unix.getpid ())) in
  let addr = Cs_svc.Transport.parse_exn socket in
  let server = Cs_svc.Server.create (Cs_svc.Server.config ~workers:1 socket) in
  let runner = Domain.spawn (fun () -> Cs_svc.Server.run server) in
  let ping = Cs_svc.Proto.stats_line () ^ "\n" in
  let buf = Bytes.create 4096 in
  let pinging = ref true in
  let idle = ref [] in
  let close_idle () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !idle;
    idle := []
  in
  let open_idle () =
    let fd = Cs_svc.Transport.connect addr in
    idle := fd :: !idle;
    if !pinging then begin
      Unix.setsockopt_float fd SO_RCVTIMEO 2.0;
      pinging :=
        try
          ignore (Unix.write_substring fd ping 0 (String.length ping));
          Unix.read fd buf 0 (Bytes.length buf) > 0
        with Unix.Unix_error _ -> false
    end
  in
  let run_result = ref (Ok ()) in
  let answered =
    Fun.protect
      ~finally:(fun () ->
        close_idle ();
        Cs_svc.Server.stop server;
        match Domain.join runner with () -> () | exception e -> run_result := Error e)
      (fun () ->
        for _ = 1 to 140 do
          open_idle ()
        done;
        close_idle ();
        (* readers see EOF and are joined on the next accept; until then a
           probe may itself find no domain to read it *)
        let deadline = Unix.gettimeofday () +. 20.0 in
        let rec probe () =
          ping_answered addr
          || Unix.gettimeofday () < deadline && (Unix.sleepf 0.1; probe ())
        in
        probe ())
  in
  (match !run_result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Server.run raised %s" (Printexc.to_string e));
  Alcotest.(check bool) "ping answered after the idle connections closed" true
    answered;
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists socket)

(* --- retry backoff saturation (property) --------------------------- *)

let to_alcotest test =
  let rng = Cs_util.Rng.create 0x5E12_EED in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

(* The bug this guards against: the naive [base *. mult ** attempt]
   overflows to infinity (or goes non-monotone through NaN) at high
   attempt counts. The fixed schedule must stay finite, saturate at
   [max_delay_s], and without jitter be monotone non-decreasing. *)
let retry_backoff_prop =
  let gen =
    QCheck.Gen.(
      map3
        (fun attempts mult seed -> (attempts, mult, seed))
        (int_range 2 400)
        (map (fun m -> 1.0 +. (float_of_int m /. 10.0)) (int_bound 90))
        (int_bound 10_000))
  in
  let print (attempts, mult, seed) =
    Printf.sprintf "attempts=%d mult=%.1f seed=%d" attempts mult seed
  in
  QCheck.Test.make ~count:60 ~name:"backoff saturates at max_delay, stays monotone"
    (QCheck.make ~print gen)
    (fun (attempts, mult, seed) ->
      let policy =
        { Cs_svc.Retry.default with
          max_attempts = attempts; multiplier = mult; seed; jitter = 0.5 }
      in
      let delays = Cs_svc.Retry.delays policy in
      let cap = policy.Cs_svc.Retry.max_delay_s *. (1.0 +. policy.Cs_svc.Retry.jitter) in
      List.iter
        (fun d ->
          if not (Float.is_finite d) then
            QCheck.Test.fail_reportf "non-finite delay %f" d;
          if d < 0.0 || d > cap +. 1e-9 then
            QCheck.Test.fail_reportf "delay %f outside [0, %f]" d cap)
        delays;
      (* without jitter the raw exponential must be monotone *)
      let bare = Cs_svc.Retry.delays { policy with jitter = 0.0 } in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
        | _ -> true
      in
      if not (monotone bare) then
        QCheck.Test.fail_reportf "unjittered schedule non-monotone";
      List.length delays = attempts - 1)

(* --- wire framing (property) ---------------------------------------- *)

(* Any cut of any byte stream into chunks frames into exactly the
   pieces of [String.split_on_char '\n']: empty lines, lines longer
   than the 4 KB read size, and a final piece with no newline. Chunks
   sit at an offset inside a buffer padded with newlines, so the
   splitter must honour [off] and [len]. *)
let wire_framing_prop =
  let open QCheck.Gen in
  let piece =
    frequency
      [ (3, return "\n");
        (6, string_size ~gen:(oneofl [ 'a'; 'b'; ' ' ]) (int_bound 12));
        (1, string_size ~gen:(return 'x') (int_range 4000 9000)) ]
  in
  let gen =
    pair (map (String.concat "") (list_size (int_bound 20) piece))
      (list_size (int_range 1 8) (int_range 1 6000))
  in
  let print (s, cuts) =
    Printf.sprintf "%d bytes, %d newlines, cuts [%s]" (String.length s)
      (List.length (String.split_on_char '\n' s) - 1)
      (String.concat ";" (List.map string_of_int cuts))
  in
  QCheck.Test.make ~count:200 ~name:"wire framing matches split_on_char"
    (QCheck.make ~print gen)
    (fun (s, cuts) ->
      let got = ref [] in
      let sp = Cs_svc.Wire.splitter (fun line -> got := line :: !got) in
      let n = String.length s in
      let rec go pos = function
        | _ when pos >= n -> ()
        | cut :: rest ->
          let len = min cut (n - pos) in
          let pad = 3 in
          let b = Bytes.make (len + (2 * pad)) '\n' in
          Bytes.blit_string s pos b pad len;
          Cs_svc.Wire.feed sp b pad len;
          go (pos + len) (rest @ [ cut ])
        | [] -> assert false
      in
      go 0 cuts;
      Cs_svc.Wire.flush sp;
      List.rev !got = String.split_on_char '\n' s)

(* --- proto tenant / class ------------------------------------------ *)

let test_proto_tenant_class_roundtrip () =
  let r =
    Cs_svc.Proto.request ~id:"t1" ~tenant:"team-a" ~job_class:"interactive" "fir"
  in
  (match Cs_svc.Proto.request_of_line (Cs_svc.Proto.request_to_line r) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check (option string)) "tenant survives the wire" (Some "team-a")
      r'.Cs_svc.Proto.tenant;
    Alcotest.(check (option string)) "class survives the wire" (Some "interactive")
      r'.Cs_svc.Proto.job_class);
  match
    Cs_svc.Proto.request_of_line
      (Cs_svc.Proto.request_to_line (Cs_svc.Proto.request ~id:"t2" "fir"))
  with
  | Error e -> Alcotest.failf "bare roundtrip failed: %s" e
  | Ok r' ->
    Alcotest.(check (option string)) "absent tenant stays absent" None
      r'.Cs_svc.Proto.tenant;
    Alcotest.(check (option string)) "absent class stays absent" None
      r'.Cs_svc.Proto.job_class

(* --- fair admission queue ------------------------------------------ *)

let test_fairq_quota_binds_per_tenant () =
  let q = Cs_svc.Fairq.create ~tenant_quota:2 ~capacity:10 () in
  let admit tenant x = Cs_svc.Fairq.admit q ~tenant ~lane:Cs_svc.Fairq.Batch x in
  Alcotest.(check bool) "hog 1" true (admit "hog" 1 = Cs_svc.Fairq.Admitted);
  Alcotest.(check bool) "hog 2" true (admit "hog" 2 = Cs_svc.Fairq.Admitted);
  Alcotest.(check bool) "hog over quota" true (admit "hog" 3 = Cs_svc.Fairq.Over_quota);
  Alcotest.(check bool) "other tenant unaffected" true
    (admit "quiet" 4 = Cs_svc.Fairq.Admitted);
  (* draining the hog frees its quota *)
  ignore (Cs_svc.Fairq.try_pull q);
  Alcotest.(check bool) "quota freed by drain" true
    (admit "hog" 5 = Cs_svc.Fairq.Admitted)

let test_fairq_capacity_sheds () =
  let q = Cs_svc.Fairq.create ~capacity:2 () in
  let admit tenant x = Cs_svc.Fairq.admit q ~tenant ~lane:Cs_svc.Fairq.Batch x in
  Alcotest.(check bool) "1" true (admit "a" 1 = Cs_svc.Fairq.Admitted);
  Alcotest.(check bool) "2" true (admit "b" 2 = Cs_svc.Fairq.Admitted);
  Alcotest.(check bool) "full sheds, not quota" true
    (admit "c" 3 = Cs_svc.Fairq.Queue_full);
  Cs_svc.Fairq.close q;
  Alcotest.(check bool) "closed sheds" true (admit "a" 4 = Cs_svc.Fairq.Queue_full)

let test_fairq_drr_interleaves_tenants () =
  let q = Cs_svc.Fairq.create ~capacity:16 () in
  (* tenant a floods first; b trickles in after — DRR must still
     alternate instead of draining a's backlog first *)
  for i = 0 to 3 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"a" ~lane:Cs_svc.Fairq.Batch ("a", i))
  done;
  for i = 0 to 3 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"b" ~lane:Cs_svc.Fairq.Batch ("b", i))
  done;
  let order = List.init 8 (fun _ -> Option.get (Cs_svc.Fairq.try_pull q)) in
  let firsts = List.filteri (fun i _ -> i < 4) order in
  Alcotest.(check int) "first four pulls: two from each tenant" 2
    (List.length (List.filter (fun (t, _) -> t = "a") firsts));
  (* per-tenant FIFO preserved *)
  Alcotest.(check (list int)) "tenant a in FIFO order" [ 0; 1; 2; 3 ]
    (List.filter_map (fun (t, i) -> if t = "a" then Some i else None) order)

let test_fairq_weights_bias_service () =
  let q = Cs_svc.Fairq.create ~weights:[ ("heavy", 2) ] ~capacity:16 () in
  for i = 0 to 5 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"heavy" ~lane:Cs_svc.Fairq.Batch ("heavy", i));
    ignore (Cs_svc.Fairq.admit q ~tenant:"light" ~lane:Cs_svc.Fairq.Batch ("light", i))
  done;
  let order = List.init 6 (fun _ -> Option.get (Cs_svc.Fairq.try_pull q)) in
  Alcotest.(check int) "weight-2 tenant gets 2/3 of early service" 4
    (List.length (List.filter (fun (t, _) -> t = "heavy") order))

let test_fairq_lane_priority_and_batch_share () =
  let q = Cs_svc.Fairq.create ~batch_share:2 ~capacity:16 () in
  for i = 0 to 3 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"t" ~lane:Cs_svc.Fairq.Batch ("B", i))
  done;
  for i = 0 to 1 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"t" ~lane:Cs_svc.Fairq.Interactive ("I", i))
  done;
  let order = List.init 6 (fun _ -> fst (Option.get (Cs_svc.Fairq.try_pull q))) in
  (* interactive first, but batch guaranteed every 2nd pull; batch
     drains the tail once interactive is empty *)
  Alcotest.(check (list string)) "lane interleaving"
    [ "I"; "B"; "I"; "B"; "B"; "B" ] order;
  Alcotest.(check int) "drained" 0 (Cs_svc.Fairq.length q)

let test_fairq_peak_watermark () =
  let q = Cs_svc.Fairq.create ~capacity:8 () in
  for i = 0 to 4 do
    ignore (Cs_svc.Fairq.admit q ~tenant:"t" ~lane:Cs_svc.Fairq.Batch i)
  done;
  for _ = 0 to 4 do
    ignore (Cs_svc.Fairq.try_pull q)
  done;
  Alcotest.(check int) "empty now" 0 (Cs_svc.Fairq.length q);
  Alcotest.(check int) "peak remembers the high-water mark" 5 (Cs_svc.Fairq.peak q)

(* --- brownout controller ------------------------------------------- *)

let test_brownout_escalates_and_recovers_hysteretically () =
  let settings =
    { Cs_svc.Brownout.default with
      high_ms = 50.0; low_ms = 10.0; alpha = 1.0; dwell_s = 1.0; max_level = 2 }
  in
  let b = Cs_svc.Brownout.create settings in
  Alcotest.(check int) "starts at level 0" 0 (Cs_svc.Brownout.level b);
  Alcotest.(check (option (float 0.0))) "no synthetic budget at level 0" None
    (Cs_svc.Brownout.budget_ms b);
  Cs_svc.Brownout.observe ~now:0.0 b ~wait_ms:100.0;
  Alcotest.(check int) "escalates immediately" 1 (Cs_svc.Brownout.level b);
  Cs_svc.Brownout.observe ~now:0.1 b ~wait_ms:100.0;
  Alcotest.(check int) "escalates again under sustained burn" 2
    (Cs_svc.Brownout.level b);
  Alcotest.(check int) "capped at max_level" 2
    (Cs_svc.Brownout.observe ~now:0.2 b ~wait_ms:500.0;
     Cs_svc.Brownout.level b);
  Alcotest.(check (float 1e-9)) "scale halves per level" 0.25 (Cs_svc.Brownout.scale b);
  (match Cs_svc.Brownout.budget_ms b with
  | Some ms ->
    Alcotest.(check (float 1e-9)) "synthetic budget halves above level 1"
      (settings.Cs_svc.Brownout.cap_ms /. 2.0) ms
  | None -> Alcotest.fail "expected a synthetic budget above level 0");
  (* quiet signal, but inside the dwell: no recovery yet *)
  Cs_svc.Brownout.observe ~now:0.5 b ~wait_ms:0.0;
  Alcotest.(check int) "dwell blocks immediate recovery" 2 (Cs_svc.Brownout.level b);
  (* past the dwell the level steps down one at a time *)
  Cs_svc.Brownout.observe ~now:2.0 b ~wait_ms:0.0;
  Alcotest.(check int) "recovers one level after dwell" 1 (Cs_svc.Brownout.level b);
  Cs_svc.Brownout.observe ~now:4.0 b ~wait_ms:0.0;
  Alcotest.(check int) "back to normal" 0 (Cs_svc.Brownout.level b);
  Alcotest.(check int) "upward transitions counted" 2
    (Cs_svc.Brownout.escalations b)

(* --- lanes: fair admission + work stealing, end to end ------------- *)

let test_serve_splits_oversized_job () =
  let socket = tmp_path (Printf.sprintf "cs_svc_split_%d.sock" (Unix.getpid ())) in
  let cfg =
    Cs_svc.Server.config ~workers:2 ~queue_capacity:8 ~split_threshold:2 socket
  in
  let reply, extra =
    with_server cfg (fun server ->
        match
          Cs_svc.Client.submit ~timeout_s:120.0
            ~addr:(Cs_svc.Transport.parse_exn socket)
            [ Cs_svc.Proto.request ~id:"big" ~machine:"raw4" ~scale:8 "fir" ]
        with
        | Ok [ reply ] ->
          (reply, (Cs_svc.Server.server_stats server).Cs_svc.Proto.extra)
        | Ok rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)
        | Error e -> Alcotest.failf "submit failed: %s" e)
  in
  (match reply.Cs_svc.Proto.verdict with
  | Cs_svc.Proto.Scheduled s ->
    Alcotest.(check bool) "aggregated cycles positive" true (s.cycles > 0)
  | Cs_svc.Proto.Refused e -> Alcotest.failf "split job refused: %s" e.message);
  let get k = try List.assoc k extra with Not_found -> -1.0 in
  Alcotest.(check bool) "splits counted" true (get "splits" >= 1.0)

let test_serve_quota_refusal_is_typed () =
  let socket = tmp_path (Printf.sprintf "cs_svc_quota_%d.sock" (Unix.getpid ())) in
  (* one slow worker, roomy global queue, but a one-job tenant quota:
     the pipelined burst must draw quota-exceeded (not overloaded) *)
  let cfg =
    Cs_svc.Server.config ~workers:1 ~queue_capacity:8 ~tenant_quota:1
      ~chaos_slow_ms:300.0 socket
  in
  let replies, stats =
    with_server cfg (fun server ->
        let jobs =
          List.init 6 (fun i ->
              Cs_svc.Proto.request ~id:(Printf.sprintf "q%d" i) ~machine:"raw4"
                ~tenant:"hog" "fir")
        in
        match
          Cs_svc.Client.submit ~timeout_s:60.0
            ~addr:(Cs_svc.Transport.parse_exn socket) jobs
        with
        | Error e -> Alcotest.failf "submit failed: %s" e
        | Ok replies -> (replies, Cs_svc.Server.stats server))
  in
  Alcotest.(check int) "every job answered" 6 (List.length replies);
  let quota_refused =
    List.filter
      (fun r ->
        match r.Cs_svc.Proto.verdict with
        | Cs_svc.Proto.Refused e -> e.kind = "quota-exceeded"
        | _ -> false)
      replies
  in
  Alcotest.(check bool) "typed quota refusals" true (List.length quota_refused >= 1);
  Alcotest.(check int) "stats agree with replies" (List.length quota_refused)
    stats.Cs_svc.Server.quota_refused;
  Alcotest.(check int) "quota is not a shed (capacity never reached)" 0
    stats.Cs_svc.Server.shed

let test_serve_mixed_verdict_strict_accounting () =
  let socket = tmp_path (Printf.sprintf "cs_svc_strict_%d.sock" (Unix.getpid ())) in
  let cfg =
    Cs_svc.Server.config ~workers:1 ~queue_capacity:1 ~chaos_slow_ms:150.0 socket
  in
  let replies =
    with_server cfg (fun _ ->
        let jobs =
          List.init 6 (fun i ->
              Cs_svc.Proto.request ~id:(Printf.sprintf "s%d" i) ~machine:"raw4" "fir")
        in
        match
          Cs_svc.Client.submit ~timeout_s:60.0
            ~addr:(Cs_svc.Transport.parse_exn socket) jobs
        with
        | Error e -> Alcotest.failf "submit failed: %s" e
        | Ok replies -> replies)
  in
  (* the exact classification `csched submit --strict` exits on:
     every reply is either scheduled or refused, sheds count as both
     refused and shed, and a mixed batch must trip the strict gate *)
  let scheduled, refused, shed =
    List.fold_left
      (fun (ok, refused, shed) (r : Cs_svc.Proto.reply) ->
        match r.Cs_svc.Proto.verdict with
        | Cs_svc.Proto.Scheduled _ -> (ok + 1, refused, shed)
        | Cs_svc.Proto.Refused { kind; _ }
          when kind = "overloaded" || kind = "quota-exceeded" ->
          (ok, refused + 1, shed + 1)
        | Cs_svc.Proto.Refused _ -> (ok, refused + 1, shed))
      (0, 0, 0) replies
  in
  Alcotest.(check int) "partition covers the batch" 6 (scheduled + refused);
  Alcotest.(check bool) "mixed verdicts: some scheduled" true (scheduled >= 1);
  Alcotest.(check bool) "mixed verdicts: some shed" true (shed >= 1);
  Alcotest.(check bool) "strict gate would trip" true (refused > 0)

let test_serve_queue_depth_peak_gauge () =
  let module M = Cs_obs.Metrics in
  let socket = tmp_path (Printf.sprintf "cs_svc_peak_%d.sock" (Unix.getpid ())) in
  let cfg =
    Cs_svc.Server.config ~workers:1 ~queue_capacity:4 ~chaos_slow_ms:150.0 socket
  in
  with_server cfg (fun _ ->
      let addr = Cs_svc.Transport.parse_exn socket in
      let jobs =
        List.init 4 (fun i ->
            Cs_svc.Proto.request ~id:(Printf.sprintf "p%d" i) ~machine:"raw4" "fir")
      in
      (match Cs_svc.Client.submit ~timeout_s:60.0 ~addr jobs with
      | Ok rs -> Alcotest.(check int) "all answered" 4 (List.length rs)
      | Error e -> Alcotest.failf "submit failed: %s" e);
      match Cs_svc.Client.fetch_metrics ~addr () with
      | Error e -> Alcotest.failf "metrics verb failed: %s" e
      | Ok (Cs_svc.Proto.Prom_text _) -> Alcotest.fail "asked for json"
      | Ok (Cs_svc.Proto.Snapshot snap) ->
        (match M.find snap "csched_queue_depth_peak" with
        | Some (M.Gauge_v v) ->
          Alcotest.(check bool) "peak gauge recorded a backlog" true (v >= 1.0)
        | _ -> Alcotest.fail "csched_queue_depth_peak missing"))

let () =
  Alcotest.run "svc"
    [
      ( "anytime",
        [
          Alcotest.test_case "expired deadline answers" `Quick
            test_expired_deadline_still_answers;
          Alcotest.test_case "truncates to one pass" `Quick
            test_expired_deadline_matches_first_pass_only;
          Alcotest.test_case "no deadline no timeout" `Quick
            test_no_deadline_never_times_out;
          Alcotest.test_case "pass budget quarantines" `Quick
            test_pass_timeout_quarantined;
          Alcotest.test_case "pass timeout in outcome" `Quick
            test_pass_timeout_surfaces_in_outcome;
        ] );
      ( "retry",
        [
          Alcotest.test_case "delays deterministic" `Quick test_retry_delays_deterministic;
          Alcotest.test_case "sleeps the schedule" `Quick
            test_retry_sleeps_recorded_schedule;
          Alcotest.test_case "gives up / skips permanent" `Quick
            test_retry_gives_up_and_skips_permanent;
        ] );
      ( "fsio",
        [ Alcotest.test_case "atomic write roundtrip" `Quick test_fsio_atomic_write_roundtrip ] );
      ( "checkpoint",
        [
          Alcotest.test_case "ga resume bit-identical" `Slow test_ga_resume_bit_identical;
          Alcotest.test_case "ga checkpoint file roundtrip" `Slow
            test_ga_checkpoint_file_roundtrip;
          Alcotest.test_case "ga deadline stops early" `Quick
            test_ga_deadline_reports_budget_exhausted;
          Alcotest.test_case "fuzz journal resume identical" `Slow
            test_fuzz_journal_resume_identical;
          Alcotest.test_case "fuzz journal mismatch fresh" `Quick
            test_fuzz_journal_mismatch_starts_fresh;
          Alcotest.test_case "fuzz journal torn tail loses one chunk" `Slow
            test_fuzz_journal_torn_tail;
          Alcotest.test_case "fuzz journal unusable dir" `Quick
            test_fuzz_journal_unusable_dir;
        ] );
      ( "queue",
        [
          Alcotest.test_case "bounds and order" `Quick test_squeue_bounds_and_order;
          Alcotest.test_case "concurrent" `Quick test_squeue_concurrent_producers_consumers;
          Alcotest.test_case "exact-capacity shed under racing producers" `Quick
            test_squeue_sheds_at_exact_capacity_concurrently;
        ] );
      ( "transport",
        [
          Alcotest.test_case "parse edge cases" `Quick test_transport_parse_edge_cases;
          Alcotest.test_case "port 0 resolves" `Quick test_transport_port_zero_resolves;
        ] );
      ( "proto",
        [
          Alcotest.test_case "request roundtrip" `Quick test_proto_request_roundtrip;
          Alcotest.test_case "reply roundtrip" `Quick test_proto_reply_roundtrip;
          Alcotest.test_case "idem key roundtrip" `Quick test_proto_idem_key_roundtrip;
          Alcotest.test_case "heartbeat roundtrip" `Quick test_proto_heartbeat_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_proto_malformed_line;
        ] );
      ( "job",
        [
          Alcotest.test_case "typed refusals" `Quick test_job_refusals_are_typed;
          Alcotest.test_case "schedules under deadline" `Quick
            test_job_schedules_with_deadline;
          Alcotest.test_case "canonical keys pinned" `Quick test_job_keys_pinned;
        ] );
      ( "server",
        [
          Alcotest.test_case "mixed batch" `Slow test_serve_mixed_batch;
          Alcotest.test_case "sheds overload" `Slow test_serve_sheds_when_overloaded;
          Alcotest.test_case "metrics verb" `Slow test_serve_metrics_verb;
          Alcotest.test_case "clean idempotent stop" `Slow
            test_serve_stop_is_clean_and_idempotent;
          Alcotest.test_case "client gone before reply" `Slow
            test_serve_survives_client_gone_before_reply;
          Alcotest.test_case "survives the domain limit" `Slow
            test_serve_survives_domain_limit;
        ] );
      ("backoff", [ to_alcotest retry_backoff_prop ]);
      ("wire", [ to_alcotest wire_framing_prop ]);
      ( "tenancy",
        [
          Alcotest.test_case "proto tenant/class roundtrip" `Quick
            test_proto_tenant_class_roundtrip;
          Alcotest.test_case "quota binds per tenant" `Quick
            test_fairq_quota_binds_per_tenant;
          Alcotest.test_case "capacity sheds" `Quick test_fairq_capacity_sheds;
          Alcotest.test_case "DRR interleaves tenants" `Quick
            test_fairq_drr_interleaves_tenants;
          Alcotest.test_case "weights bias service" `Quick
            test_fairq_weights_bias_service;
          Alcotest.test_case "lane priority + batch share" `Quick
            test_fairq_lane_priority_and_batch_share;
          Alcotest.test_case "peak watermark" `Quick test_fairq_peak_watermark;
        ] );
      ( "brownout",
        [
          Alcotest.test_case "hysteretic escalate/recover" `Quick
            test_brownout_escalates_and_recovers_hysteretically;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "splits oversized job" `Slow
            test_serve_splits_oversized_job;
          Alcotest.test_case "typed quota refusal" `Slow
            test_serve_quota_refusal_is_typed;
          Alcotest.test_case "mixed-verdict strict accounting" `Slow
            test_serve_mixed_verdict_strict_accounting;
          Alcotest.test_case "queue depth peak gauge" `Slow
            test_serve_queue_depth_peak_gauge;
        ] );
    ]
