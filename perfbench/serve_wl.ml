(* The serve workloads: a real fleet (gateway + two single-worker
   shards, child processes on loopback TCP) driven by this process over
   at most two connections. One request per connection, as
   [csched submit] sends a single job.

   A run uses [n_fleets] fleets in turn. Each has two measured phases:
   open-loop arrivals at a fixed rate (latency, timed from each
   request's due time), then a closed-loop capacity phase (throughput). *)

open Report
module Proto = Cs_svc.Proto
module Metrics = Cs_obs.Metrics

type kind = Hot | Fresh

type spec = {
  name : string;
  kind : kind;
  rate : float;  (** open-loop arrivals per second *)
  limit_ms : float;  (** a reply slower than this misses the latency limit *)
  sample : int;  (** scenarios recomputed in process to check the fleet *)
}

(* The latency limits sit far above the p90 of unchanged code (about
   13 ms on serve-hot and 70 ms on serve-fresh on a quiet host), because
   on a shared host the hypervisor's steal alone has pushed p90 to 77 ms
   and 137 ms, and p50 on serve-fresh past 1 s in the worst run. So
   goodput guards against failures and slowdowns of several times, not
   small ones; cost is judged on CPU time. *)
let hot = { name = "serve-hot"; kind = Hot; rate = 50.0; limit_ms = 250.0; sample = 6 }
let fresh = { name = "serve-fresh"; kind = Fresh; rate = 16.0; limit_ms = 1000.0; sample = 8 }

let conns = 2
let open_share = 0.7

type scen = { bench : string; scale : int; machine : string; seed : int }

let key s = Printf.sprintf "%s/s%d/%s/seed%d" s.bench s.scale s.machine s.seed

let vliw_benches = [ "vvmul"; "rbsorf"; "yuv"; "tomcatv"; "mxm"; "fir"; "cholesky" ]
let raw_benches = [ "jacobi"; "swim"; "tomcatv"; "vpenta"; "fpppp-kernel" ]

(* 28 small VLIW scenarios: well inside the gateway's 256-entry cache. *)
let hot_set =
  Array.of_list
    (List.concat_map
       (fun bench -> List.map (fun seed -> { bench; scale = 1; machine = "vliw4"; seed }) [ 1; 2; 3; 4 ])
       vliw_benches)

(* A seeded cyclic draw: every element once per cycle, each cycle in a
   fresh seeded order. Every stretch of requests then has the same mix,
   so a figure does not move with how often a run drew a slow bench. *)
let cycler rng items =
  let a = Array.copy items and pos = ref (Array.length items) in
  fun () ->
    if !pos >= Array.length a then begin
      Cs_util.Rng.shuffle rng a;
      pos := 0
    end;
    incr pos;
    a.(!pos - 1)

let vliw_pool = Array.of_list (List.map (fun b -> (b, "vliw4")) vliw_benches)

let mixed_pool =
  Array.append vliw_pool (Array.of_list (List.map (fun b -> (b, "raw16")) raw_benches))

(* Fresh scenarios: request seeds are distinct within a run, so every
   one is a cache miss. *)
let fresh_gen ~seed ~base pool =
  let draw = cycler (Cs_util.Rng.create (seed lxor base)) pool in
  let next = ref 0 in
  fun () ->
    incr next;
    let bench, machine = draw () in
    { bench; scale = 1; machine; seed = base + ((seed land 0xffff) * 100_000) + !next }

(* serve-hot: in every block of [block] requests exactly [block_fresh]
   are fresh, at seeded positions, so the hit share is the same in
   every run (92%) and the p90 always falls among the hits. *)
let block = 25
let block_fresh = 2

let stream spec ~seed n =
  let rng = Cs_util.Rng.create seed in
  match spec.kind with
  | Fresh ->
    let fresh = fresh_gen ~seed ~base:1_000 mixed_pool in
    Array.init n (fun _ -> fresh ())
  | Hot ->
    let fresh = fresh_gen ~seed ~base:1_000 vliw_pool in
    let hot = cycler rng hot_set in
    let is_fresh = Array.make block false in
    Array.init n (fun i ->
        if i mod block = 0 then begin
          Array.iteri (fun j _ -> is_fresh.(j) <- j < block_fresh) is_fresh;
          Cs_util.Rng.shuffle rng is_fresh
        end;
        if is_fresh.(i mod block) then fresh () else hot ())

(* Warm-up is the same in every run: set-up time then measures the same
   work whatever the seed. *)
let warmup_set spec =
  match spec.kind with
  | Hot -> Array.append hot_set hot_set  (* fill the cache, then exercise hits *)
  | Fresh ->
    let fresh = fresh_gen ~seed:0 ~base:50_000 mixed_pool in
    Array.init 6 (fun _ -> fresh ())

(* ---- one exchange ---------------------------------------------------- *)

type exchange = {
  scen : scen;
  id : string;
  reply : (Proto.reply, string) result;
  finished : float;
  traced : bool;
  connect_s : float;
  encode_s : float;
  decode_s : float;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_all fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Ok (Buffer.contents buf)
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (e, _, _) -> Error ("recv: " ^ Unix.error_message e)
  in
  go ()

(* Connect, send one request, half-close, read until the server closes.
   Exactly one reply line carrying the request's id is a success. *)
let exchange ~addr ~traced ~id s =
  let clock () = if traced then Unix.gettimeofday () else 0.0 in
  let req = Proto.request ~id ~machine:s.machine ~scale:s.scale ~seed:s.seed s.bench in
  let e0 = clock () in
  let line = Proto.request_to_line req in
  let c0 = clock () in
  let result connect_s decode_s reply =
    { scen = s; id; reply; finished = Unix.gettimeofday (); traced; connect_s;
      encode_s = c0 -. e0; decode_s }
  in
  match Cs_svc.Transport.connect addr with
  | exception Unix.Unix_error (e, _, _) -> result 0.0 0.0 (Error ("connect: " ^ Unix.error_message e))
  | fd ->
    let connect_s = clock () -. c0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
          write_all fd (line ^ "\n");
          Unix.shutdown fd Unix.SHUTDOWN_SEND
        with
        | exception Unix.Unix_error (e, _, _) ->
          result connect_s 0.0 (Error ("send: " ^ Unix.error_message e))
        | () -> (
          match read_all fd with
          | Error e -> result connect_s 0.0 (Error e)
          | Ok text -> (
            match List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) with
            | [ l ] ->
              let d0 = clock () in
              let reply = Proto.reply_of_line l in
              let decode_s = clock () -. d0 in
              result connect_s decode_s
                (match reply with
                | Ok r when r.Proto.reply_id <> id ->
                  Error (Printf.sprintf "reply for %S answered %S" id r.Proto.reply_id)
                | Ok r -> Ok r
                | Error e -> Error ("bad reply: " ^ e))
            | [] -> result connect_s 0.0 (Error "lost: no reply")
            | ls ->
              result connect_s 0.0
                (Error (Printf.sprintf "duplicated: %d replies" (List.length ls))))))

type scheduled = { cycles : int; transfers : int; timed_out : bool }

let scheduled x =
  match x.reply with
  | Ok { Proto.verdict = Proto.Scheduled { cycles; transfers; timed_out; _ }; _ } ->
    Some { cycles; transfers; timed_out }
  | _ -> None

let failure x =
  match x.reply with
  | Error e -> Some e
  | Ok { Proto.verdict = Proto.Refused { kind; message }; _ } ->
    Some (Printf.sprintf "refused (%s): %s" kind message)
  | Ok { Proto.verdict = Proto.Scheduled v; _ } when v.timed_out -> Some "timed out"
  | Ok _ -> None

(* Send [scens] through the gateway over [conns] connections, back to
   back; used for warm-up. *)
let send_all ~addr ~prefix scens =
  let n = Array.length scens in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        out.(i) <-
          Some (exchange ~addr ~traced:false ~id:(Printf.sprintf "%s-%d" prefix i) scens.(i));
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  Array.to_list out |> List.filter_map Fun.id

(* ---- fleet counters --------------------------------------------------- *)

let counter snap name =
  match Metrics.find snap name with Some (Metrics.Counter_v n) -> n | _ -> 0

let histo_delta ~before ~after name =
  let get snap =
    match Metrics.find snap name with
    | Some (Metrics.Histo_v h) -> h
    | _ -> { Metrics.counts = Array.make Metrics.n_buckets 0; sum = 0.0 }
  in
  let a = get after and b = get before in
  { Metrics.counts = Array.map2 ( - ) a.Metrics.counts b.Metrics.counts;
    sum = a.sum -. b.sum }

let extra (s : Proto.server_stats) name =
  Option.value ~default:0.0 (List.assoc_opt name s.Proto.extra)

(* The gateway's cache key, replayed in process on the request stream:
   regenerate the workload and hash its canonical form. *)
let key_replay ~spans scens =
  let gen = ref 0.0 and total = ref 0.0 in
  List.iteri
    (fun i s ->
      let job = 1_000_000 + i in
      let t0 = Unix.gettimeofday () in
      let machine = Result.get_ok (Proto.machine_of_name s.machine) in
      let entry = Option.get (Cs_workloads.Suite.find s.bench) in
      let region =
        entry.Cs_workloads.Suite.generate ~scale:s.scale
          ~clusters:(Cs_machine.Machine.n_clusters machine) ()
      in
      let t1 = Unix.gettimeofday () in
      let spec = Printf.sprintf "scheduler convergent passes default seed %d" s.seed in
      ignore (Cs_core.Scenario.canonical_hash ~spec ~machine region);
      let t2 = Unix.gettimeofday () in
      Spans.record spans ~parent:"gateway.key" ~job "workloads.generate" t0 t1;
      Spans.record spans ~parent:"" ~job "gateway.key" t0 t2;
      gen := !gen +. (t1 -. t0);
      total := !total +. (t2 -. t0))
    scens;
  let n = float_of_int (max 1 (List.length scens)) in
  (1000.0 *. !gen /. n, 1000.0 *. !total /. n)

(* What one fleet produced: its set-up time, warm-up replies, the two
   phases, and the counters read before and after them. *)
type fleet_run = {
  setup : float;  (** CPU seconds: this process plus the fleet's processes *)
  setup_wall : float;
  warm : exchange list;
  open_samples : Loadgen.sample list;
  closed_samples : Loadgen.sample list;
  closed_span : float;
  fleet_cpu : float;  (** CPU seconds of gateway and shards over both phases *)
  gw : Proto.server_stats * Proto.server_stats;
  sh : Metrics.snapshot * Metrics.snapshot;
  rss : float;
}

(* The run uses several fleets in turn, each started, warmed up,
   measured for its share of the run and torn down. Set-up time is the
   median over the fleets' set-ups, and pooling the fleets' samples gave
   a narrower run-to-run spread of CPU cost and peak RSS than one fleet
   measured for the whole run (see README.md). *)
let n_fleets = 5

(* ---- the run ---------------------------------------------------------- *)

let run spec ~exe ~seed ~seconds ~spans =
  let traced = spans.Spans.enabled in
  let tally = Report.tally () in
  let record_reply x =
    Report.check tally (failure x = None)
      (lazy (Printf.sprintf "%s (%s): %s" x.id (key x.scen) (Option.get (failure x))))
  in
  let per_fleet = seconds /. float_of_int n_fleets in
  let open_s = open_share *. per_fleet and closed_s = (1.0 -. open_share) *. per_fleet in
  let n_open = int_of_float (Float.ceil (spec.rate *. open_s)) in
  let max_closed = 10_000 in
  let stride = n_open + max_closed in
  let scens = stream spec ~seed (n_fleets * stride) in
  let log = Array.make (n_fleets * stride) None in
  let one_fleet f =
    let base = f * stride in
    let c0 = Inproc.cpu_s () and t0 = Unix.gettimeofday () in
    let fleet = Fleet.start ~exe in
    Fun.protect
      ~finally:(fun () -> Fleet.stop fleet)
      (fun () ->
        let addr = fleet.Fleet.gateway.addr in
        (* set-up ends once the fleet answers and is warm *)
        let warm =
          send_all ~addr ~prefix:(Printf.sprintf "warm%d" f) (warmup_set spec)
        in
        let setup_wall = Unix.gettimeofday () -. t0 in
        let setup = Inproc.cpu_s () -. c0 +. Fleet.fleet_cpu_s fleet in
        let send i =
          (* in the traced run every other request is traced, so traced
             and untraced latency can be compared for the overhead *)
          let x =
            exchange ~addr ~traced:(traced && i mod 2 = 1) ~id:(Printf.sprintf "r%d" i)
              scens.(i)
          in
          log.(i) <- Some x;
          failure x = None
        in
        let gw0 = Fleet.gateway_stats fleet and sh0 = Fleet.shard_metrics fleet in
        let cpu0 = Fleet.fleet_cpu_s fleet in
        let open_samples =
          Loadgen.open_loop ~conns ~rate:spec.rate ~n:n_open ~first:base send
        in
        let closed_samples, closed_span =
          Loadgen.closed_loop ~conns ~duration:closed_s ~first:(base + n_open)
            ~max_n:max_closed send
        in
        let fleet_cpu = Fleet.fleet_cpu_s fleet -. cpu0 in
        let gw1 = Fleet.gateway_stats fleet and sh1 = Fleet.shard_metrics fleet in
        { setup; setup_wall; warm; open_samples; closed_samples; closed_span; fleet_cpu; gw = (gw0, gw1);
          sh = (sh0, sh1); rss = Fleet.peak_rss_mb fleet })
  in
  let fleets = List.init n_fleets one_fleet in
  let warm = List.concat_map (fun r -> r.warm) fleets in
  let open_samples = List.concat_map (fun r -> r.open_samples) fleets in
  let closed_samples = List.concat_map (fun r -> r.closed_samples) fleets in
  List.iter record_reply warm;
  let xs = Array.to_list log |> List.filter_map Fun.id in
  List.iter record_reply xs;
  let of_sample (s : Loadgen.sample) = Option.get log.(s.index) in
  (* Output checks: a cached reply carries the cycles and transfers of
     the first uncached reply for its scenario, and uncached replies of
     one scenario agree. *)
  let all = List.sort (fun a b -> compare a.finished b.finished) (warm @ xs) in
  let origin = Hashtbl.create 256 in
  List.iter
    (fun x ->
      match (scheduled x, x.reply) with
      | Some v, Ok r when not r.Proto.cached -> (
        match Hashtbl.find_opt origin (key x.scen) with
        | None -> Hashtbl.replace origin (key x.scen) (v.cycles, v.transfers)
        | Some (c, t) ->
          if (c, t) <> (v.cycles, v.transfers) then
            Report.fail tally
              (Printf.sprintf "%s: uncached replies disagree (%d/%d vs %d/%d)" (key x.scen)
                 c t v.cycles v.transfers))
      | _ -> ())
    all;
  List.iter
    (fun x ->
      match (scheduled x, x.reply) with
      | Some v, Ok r when r.Proto.cached -> (
        match Hashtbl.find_opt origin (key x.scen) with
        | None -> Report.fail tally (Printf.sprintf "%s: cached reply with no uncached origin" (key x.scen))
        | Some (c, t) ->
          if (c, t) <> (v.cycles, v.transfers) then
            Report.fail tally
              (Printf.sprintf "%s: cached reply %d/%d, first uncached %d/%d" (key x.scen)
                 v.cycles v.transfers c t))
      | _ -> ())
    all;
  (* A seeded sample of scenarios, recomputed in process, must match
     what the fleet answered. *)
  let distinct =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) origin [] |> List.sort compare |> Array.of_list
  in
  let scen_of = Hashtbl.create 256 in
  List.iter (fun x -> Hashtbl.replace scen_of (key x.scen) x.scen) all;
  let rng = Cs_util.Rng.create (seed + 1) in
  Cs_util.Rng.shuffle rng distinct;
  let n_sample = min (Array.length distinct) (if traced then 3 * spec.sample else spec.sample) in
  let gc0 = Gc.quick_stat () in
  let sample_transfers = ref 0 and sample_quarantined = ref 0 in
  let sample_facts = ref [] in
  for i = 0 to n_sample - 1 do
    let k, expected = distinct.(i) in
    let s = Hashtbl.find scen_of k in
    let sc = Inproc.scenario ~seed:s.seed ~machine:s.machine s.bench s.scale in
    let got =
      try
        if not traced then Ok (Inproc.reference sc)
        else begin
          let probe = Inproc.generate sc in
          sample_facts := Inproc.facts sc probe :: !sample_facts;
          let r = Inproc.run ~spans ~probe ~job:(2_000_000 + i) sc in
          sample_quarantined := !sample_quarantined + r.Inproc.quarantined;
          (* the decomposed job must agree with the library pipeline *)
          if i = 0 && Inproc.reference sc <> (r.cycles, r.transfers) then
            Report.fail tally (Printf.sprintf "%s: pipeline and benchmark job disagree" k);
          if r.valid = Ok () then Ok (r.cycles, r.transfers) else Error "invalid schedule"
        end
      with e -> Error (Printexc.to_string e)
    in
    Report.check tally (got = Ok expected)
      (lazy
        (match got with
        | Ok (c, t) ->
          Printf.sprintf "%s: fleet answered %d/%d, in process %d/%d" k (fst expected)
            (snd expected) c t
        | Error e -> Printf.sprintf "%s: in-process recompute failed: %s" k e));
    Result.iter (fun (_, t) -> sample_transfers := !sample_transfers + t) got
  done;
  let gc1 = Gc.quick_stat () in
  (* ---- end-to-end metrics ---- *)
  let ms x = 1000.0 *. x in
  let lat = List.map (fun s -> ms (Loadgen.latency s)) open_samples in
  let phase_ok samples = List.filter (fun (s : Loadgen.sample) -> s.ok) samples in
  let within =
    List.length
      (List.filter
         (fun (s : Loadgen.sample) -> s.ok && ms (Loadgen.latency s) <= spec.limit_ms)
         (open_samples @ closed_samples))
  in
  let instrs_of = Hashtbl.create 32 in
  let instrs s =
    let k = (s.bench, s.scale, s.machine) in
    match Hashtbl.find_opt instrs_of k with
    | Some n -> n
    | None ->
      let sc = Inproc.scenario ~machine:s.machine s.bench s.scale in
      let n = Cs_ddg.Region.n_instrs (Inproc.generate sc) in
      Hashtbl.replace instrs_of k n;
      n
  in
  (* capacity: each fleet's successful replies (or their instructions)
     per second of its closed phase; the median fleet is reported *)
  let closed_rate weight =
    median
      (List.map
         (fun r ->
           List.fold_left
             (fun acc (s : Loadgen.sample) -> if s.ok then acc +. weight s else acc)
             0.0 r.closed_samples
           /. r.closed_span)
         fleets)
  in
  (* geomean over benches of each bench's geomean over its distinct
     scenarios, so every bench weighs the same however many of its
     scenarios a run happened to draw *)
  let cycles_over scens =
    let by_bench = Hashtbl.create 16 in
    List.iter
      (fun s ->
        match Hashtbl.find_opt origin (key s) with
        | Some (c, _) ->
          let b = (s.bench, s.machine) in
          Hashtbl.replace by_bench b
            (float_of_int c :: Option.value ~default:[] (Hashtbl.find_opt by_bench b))
        | None -> ())
      (List.sort_uniq compare scens);
    Cs_util.Stats.geomean
      (Hashtbl.fold (fun _ cs acc -> Cs_util.Stats.geomean cs :: acc) by_bench [])
  in
  let makespan =
    match spec.kind with
    | Hot -> cycles_over (Array.to_list hot_set)
    | Fresh -> cycles_over (List.map (fun s -> (of_sample s).scen) open_samples)
  in
  (* cost: fleet CPU per answered request, and instructions answered per
     fleet CPU second, over both phases of every fleet *)
  let fleet_cpu = List.fold_left (fun acc r -> acc +. r.fleet_cpu) 0.0 fleets in
  let answered = List.filter (fun (s : Loadgen.sample) -> s.ok) (open_samples @ closed_samples) in
  let answered_instrs =
    List.fold_left (fun acc s -> acc + instrs (of_sample s).scen) 0 answered
  in
  let end_to_end =
    [ metric "setup_s" "s" (median (List.map (fun r -> r.setup) fleets));
      metric "setup_wall_s" "s" (median (List.map (fun r -> r.setup_wall) fleets));
      metric "cpu_ms_per_op" "ms"
        (1000.0 *. fleet_cpu /. float_of_int (max 1 (List.length answered)));
      metric "instrs_per_cpu_s" "1/s" (float_of_int answered_instrs /. fleet_cpu);
      metric "instrs_per_s" "1/s"
        (closed_rate (fun s -> float_of_int (instrs (of_sample s).scen)));
      metric "makespan_cycles_geomean" "cycles" makespan;
      metric "peak_rss_mb" "MB" (median (List.map (fun r -> r.rss) fleets));
      metric "latency_ms_p50" "ms" (pct 50.0 lat);
      metric "latency_ms_p90" "ms" (pct 90.0 lat);
      metric "goodput_ratio" "ratio"
        (float_of_int within
        /. float_of_int (max 1 (List.length open_samples + List.length closed_samples)));
      metric "throughput_rps" "1/s" (closed_rate (fun _ -> 1.0)) ]
  in
  (* ---- per-layer metrics ---- *)
  let per_layer =
    if not traced then []
    else begin
      let tr = List.filter (fun x -> x.traced) xs in
      let p50 f = pct 50.0 (List.map f tr) in
      (* fleet counters: deltas over the measured phases, summed *)
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 fleets in
      let sh_counter name =
        sum (fun { sh = sh0, sh1; _ } -> float_of_int (counter sh1 name - counter sh0 name))
      in
      let sh_histo name =
        let deltas =
          List.map (fun { sh = before, after; _ } -> histo_delta ~before ~after name) fleets
        in
        { Metrics.counts =
            Array.init Metrics.n_buckets (fun b ->
                List.fold_left (fun acc h -> acc + h.Metrics.counts.(b)) 0 deltas);
          sum = List.fold_left (fun acc h -> acc +. h.Metrics.sum) 0.0 deltas }
      in
      let qwait = sh_histo "csched_queue_wait_ms" in
      let jobms = sh_histo "csched_job_latency_ms" in
      let gx name = sum (fun { gw = gw0, gw1; _ } -> extra gw1 name -. extra gw0 name) in
      let hits = gx "cache_hits" and misses = gx "cache_misses" in
      let elapsed cached =
        List.filter_map
          (fun x ->
            match x.reply with
            | Ok r when r.Proto.cached = cached && scheduled x <> None -> Some r.Proto.elapsed_ms
            | _ -> None)
          xs
      in
      let timed_out =
        List.length
          (List.filter (fun x -> match scheduled x with Some v -> v.timed_out | None -> false) xs)
      in
      let lat_of traced_flag =
        pct 50.0
          (List.filter_map
             (fun s ->
               if (of_sample s).traced = traced_flag then Some (Loadgen.latency s) else None)
             open_samples)
      in
      let replay =
        List.filteri (fun i _ -> i < 200) (List.map (fun s -> (of_sample s).scen) open_samples)
      in
      let gen_ms, key_ms = key_replay ~spans replay in
      let n_traced, job_ms, layers =
        Inproc.layer_ms spans ~keep:(fun j -> j >= 2_000_000)
      in
      let self_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
      let layers =
        List.map (fun (n, v) -> if n = "workloads.generate_ms" then (n, gen_ms) else (n, v)) layers
      in
      let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
      let per_job x = x /. float_of_int (max 1 n_traced) in
      List.map (fun (name, v) -> metric name "ms" v) layers
      @ [ metric "core.weights_mb" "MB"
            (Cs_util.Stats.mean (List.map (fun f -> f.Inproc.weights_mb) !sample_facts));
          metric "core.quarantined" "count" (float_of_int !sample_quarantined);
          metric "sched.transfers" "count" (per_job (float_of_int !sample_transfers));
          metric "runtime.alloc_mb" "MB" (per_job ((words gc1 -. words gc0) *. 8.0 /. 1e6));
          metric "runtime.major_gcs" "count"
            (per_job (float_of_int (gc1.major_collections - gc0.major_collections)));
          metric "job.wall_ms" "ms" job_ms;
          metric "trace.self_coverage_ratio" "ratio" (if job_ms > 0.0 then self_sum /. job_ms else 0.0);
          metric "trace.overhead_ratio" "ratio" (lat_of true /. lat_of false);
          metric "svc.client.connect_ms_p50" "ms" (ms (p50 (fun x -> x.connect_s)));
          metric "svc.proto.encode_us" "us" (1e6 *. p50 (fun x -> x.encode_s));
          metric "svc.proto.decode_us" "us" (1e6 *. p50 (fun x -> x.decode_s));
          metric "svc.shard.queue_wait_ms_p50" "ms" (Metrics.quantile qwait 50.0);
          metric "svc.shard.queue_wait_ms_p90" "ms" (Metrics.quantile qwait 90.0);
          metric "svc.shard.job_ms_p50" "ms" (Metrics.quantile jobms 50.0);
          metric "svc.shard.job_ms_p90" "ms" (Metrics.quantile jobms 90.0);
          metric "svc.shard.shed" "count" (sh_counter "csched_jobs_shed_total");
          metric "svc.shard.steals" "count" (sh_counter "csched_steals_total");
          metric "svc.shard.timed_out" "count" (float_of_int timed_out);
          metric "gateway.key_ms" "ms" key_ms;
          metric "gateway.cache_hit_ratio" "ratio"
            (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
          metric "gateway.hit_ms_p50" "ms" (pct 50.0 (elapsed true));
          metric "gateway.miss_ms_p50" "ms" (pct 50.0 (elapsed false));
          metric "gateway.forwarded" "count" (gx "forwarded");
          metric "gateway.replayed" "count" (gx "replayed");
          metric "gateway.rerouted" "count" (gx "rerouted");
          metric "gateway.shed" "count"
            (sum (fun { gw = gw0, gw1; _ } -> float_of_int (gw1.Proto.shed - gw0.Proto.shed)));
          metric "loadgen.late_ms_p90" "ms"
            (pct 90.0 (List.map (fun s -> ms (Loadgen.late s)) open_samples)) ]
    end
  in
  let phase name (samples : Loadgen.sample list) =
    let ok = List.length (phase_ok samples) in
    ( name,
      Cs_obs.Json.Obj
        [ ("sent", int (List.length samples)); ("succeeded", int ok);
          ("failed", int (List.length samples - ok)) ] )
  in
  let details =
    [ phase "open_loop" open_samples; phase "closed_loop" closed_samples;
      ("fleets", int n_fleets); ("open_rate_per_s", num spec.rate);
      ("open_s_per_fleet", num open_s);
      ("closed_s_per_fleet", num (median (List.map (fun r -> r.closed_span) fleets)));
      ("connections", int conns);
      ("latency_samples", int (List.length lat)); ("limit_ms", num spec.limit_ms);
      ("warmup_requests", int (List.length warm)); ("recomputed", int n_sample);
      ("distinct_scenarios", int (Array.length distinct)) ]
  in
  ({ attempted = tally.attempted; failed = tally.failed; problems = List.rev tally.problems;
     end_to_end; per_layer; details }
    : Report.outcome)
