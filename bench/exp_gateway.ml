(* Gateway fleet experiment (extension): what does the sharded gateway
   buy over a lone server? Two parts, both against real loopback-TCP
   servers — the same binaries-worth of code `csched serve`/`csched
   gateway` run, minus the process boundary:

   1. Result cache under 50% repeat traffic. A warm wave populates the
      gateway's LRU, then a measured wave mixes repeats (cache hits,
      answered at the gateway) 1:1 with fresh scenarios (forwarded and
      scheduled on a shard). Reported: p50/p99 per class and the p99
      speedup — the acceptance bar is cached p99 at least 5x better.

   2. Kill-a-shard chaos drill. A batch is submitted with every shard
      slowed so jobs are mid-flight, then the busier shard is severed.
      Reported: lost and duplicated replies (both must be zero — the
      gateway replays in-flight jobs of a dead shard on a survivor
      exactly once) and the replay/reroute counters.

   Machine-readable output lands in BENCH_gateway.json (written
   atomically; CI parses it). *)

let n_unique = 24

type class_stats = { n : int; p50 : float; p99 : float }

let class_stats replies =
  let lat = List.map (fun r -> r.Cs_svc.Proto.elapsed_ms) replies in
  let q = Report.latency_quantiles lat in
  { n = List.length replies; p50 = q 50.0; p99 = q 99.0 }

let with_server ?chaos_slow_ms () =
  let cfg = Cs_svc.Server.config ~workers:2 ?chaos_slow_ms "127.0.0.1:0" in
  let server = Cs_svc.Server.create cfg in
  let domain = Domain.spawn (fun () -> Cs_svc.Server.run server) in
  (server, domain)

let with_fleet ?chaos_slow_ms f =
  let s1, d1 = with_server ?chaos_slow_ms () in
  let s2, d2 = with_server ?chaos_slow_ms () in
  let shard_spec s = Cs_svc.Transport.to_string (Cs_svc.Server.address s) in
  let gw =
    Cs_gateway.Gateway.create
      (Cs_gateway.Gateway.config ~forwarders:4 ~cache_capacity:256
         ~probe_period_s:0.2
         ~shards:[ shard_spec s1; shard_spec s2 ]
         "127.0.0.1:0")
  in
  let dg = Domain.spawn (fun () -> Cs_gateway.Gateway.run gw) in
  Fun.protect
    ~finally:(fun () ->
      Cs_gateway.Gateway.stop gw;
      Domain.join dg;
      Cs_svc.Server.stop s1;
      Cs_svc.Server.stop s2;
      Domain.join d1;
      Domain.join d2)
    (fun () -> f gw (s1, s2))

let job ~prefix ~seed i =
  Cs_svc.Proto.request
    ~id:(Printf.sprintf "%s%d" prefix i)
    ~machine:"raw4" ~seed "fir"

let submit ~addr jobs =
  match Cs_svc.Client.submit ~timeout_s:300.0 ~addr jobs with
  | Ok replies -> replies
  | Error e -> failwith ("gateway bench submit failed: " ^ e)

let cache_experiment () =
  Report.subsection "result cache, 50% repeat traffic";
  with_fleet @@ fun gw _ ->
  let addr = Cs_gateway.Gateway.address gw in
  let warm = List.init n_unique (fun i -> job ~prefix:"warm" ~seed:i i) in
  ignore (submit ~addr warm);
  let measured =
    List.concat
      (List.init n_unique (fun i ->
           [ job ~prefix:"rep" ~seed:i i;            (* repeat: cache hit *)
             job ~prefix:"new" ~seed:(1000 + i) i ] (* fresh: forwarded *)))
  in
  let replies = submit ~addr measured in
  let cached, uncached = List.partition (fun r -> r.Cs_svc.Proto.cached) replies in
  let c = class_stats cached and u = class_stats uncached in
  let speedup = if c.p99 > 0.0 then u.p99 /. c.p99 else infinity in
  let table =
    Cs_util.Table.create ~header:[ "class"; "jobs"; "p50_ms"; "p99_ms" ]
  in
  Cs_util.Table.add_row table
    [ "cached"; string_of_int c.n; Report.fl c.p50; Report.fl c.p99 ];
  Cs_util.Table.add_row table
    [ "uncached"; string_of_int u.n; Report.fl u.p50; Report.fl u.p99 ];
  Cs_util.Table.print table;
  Printf.printf "p99 speedup from cache: %.1fx%s\n" speedup
    (if speedup >= 5.0 then "" else "  WARNING: below the 5x acceptance bar");
  let st = Cs_gateway.Gateway.stats gw in
  Printf.printf "gateway: %d hits / %d misses / %d forwarded\n"
    st.Cs_gateway.Gateway.cache_hits st.Cs_gateway.Gateway.cache_misses
    st.Cs_gateway.Gateway.forwarded;
  let cls name s =
    ( name,
      Cs_obs.Json.Obj
        [ ("jobs", Cs_obs.Json.Num (float_of_int s.n));
          ("p50_ms", Cs_obs.Json.Num s.p50); ("p99_ms", Cs_obs.Json.Num s.p99) ] )
  in
  Cs_obs.Json.Obj
    [ ("repeat_fraction", Cs_obs.Json.Num 0.5);
      cls "cached" c; cls "uncached" u;
      ("p99_speedup", Cs_obs.Json.Num speedup);
      ("cache_hits", Cs_obs.Json.Num (float_of_int st.Cs_gateway.Gateway.cache_hits));
      ("cache_misses", Cs_obs.Json.Num (float_of_int st.Cs_gateway.Gateway.cache_misses)) ]

let chaos_experiment () =
  Report.subsection "kill-a-shard chaos drill";
  with_fleet ~chaos_slow_ms:200.0 @@ fun gw (s1, s2) ->
  let n_jobs = 16 in
  let jobs = List.init n_jobs (fun i -> job ~prefix:"chaos" ~seed:i i) in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.12;
        let victim =
          if (Cs_svc.Server.stats s1).Cs_svc.Server.admitted > 0 then s1 else s2
        in
        Cs_svc.Server.abort victim)
  in
  let replies = submit ~addr:(Cs_gateway.Gateway.address gw) jobs in
  Domain.join killer;
  let answered id =
    List.length (List.filter (fun r -> r.Cs_svc.Proto.reply_id = id) replies)
  in
  let lost =
    List.length (List.filter (fun j -> answered j.Cs_svc.Proto.id = 0) jobs)
  in
  let duplicated =
    List.length (List.filter (fun j -> answered j.Cs_svc.Proto.id > 1) jobs)
  in
  let refused =
    List.length
      (List.filter
         (fun r ->
           match r.Cs_svc.Proto.verdict with
           | Cs_svc.Proto.Refused _ -> true
           | Cs_svc.Proto.Scheduled _ -> false)
         replies)
  in
  let st = Cs_gateway.Gateway.stats gw in
  Printf.printf
    "%d jobs, one shard killed mid-batch: %d lost, %d duplicated, %d refused, \
     %d replayed, %d rerouted\n"
    n_jobs lost duplicated refused st.Cs_gateway.Gateway.replayed
    st.Cs_gateway.Gateway.rerouted;
  if lost > 0 || duplicated > 0 then
    Printf.printf "WARNING: exactly-once failover violated\n";
  Cs_obs.Json.Obj
    [ ("jobs", Cs_obs.Json.Num (float_of_int n_jobs));
      ("lost", Cs_obs.Json.Num (float_of_int lost));
      ("duplicated", Cs_obs.Json.Num (float_of_int duplicated));
      ("refused", Cs_obs.Json.Num (float_of_int refused));
      ("replayed", Cs_obs.Json.Num (float_of_int st.Cs_gateway.Gateway.replayed));
      ("rerouted", Cs_obs.Json.Num (float_of_int st.Cs_gateway.Gateway.rerouted)) ]

let gateway () =
  Report.section "Gateway fleet: result cache and failover (extension)";
  let cache_json = cache_experiment () in
  let chaos_json = chaos_experiment () in
  let json =
    Cs_obs.Json.Obj
      [ ("experiment", Cs_obs.Json.Str "gateway");
        ("shards", Cs_obs.Json.Num 2.0);
        ("cache", cache_json);
        ("chaos", chaos_json) ]
  in
  Cs_util.Fsio.write_atomic ~path:"BENCH_gateway.json"
    (Cs_obs.Json.to_string json ^ "\n");
  Printf.printf "\nwrote BENCH_gateway.json\n"
