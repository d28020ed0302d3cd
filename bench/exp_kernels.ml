(* Weight-matrix kernel micro-benchmark: rows/sec per convergent pass
   under the driver's dirty-row protocol vs a full-sweep protocol, on
   the one Weights storage at the production nt cap (512).

   Each side runs a whole per-pass protocol, so the numbers reflect
   end-to-end pass cost, not just the inner loop:

     full sweep:  blit w->snapshot; apply; normalize_all; validate
     dirty row:   clear_touched; apply; normalize_touched;
                  validate_touched; sync_rows touched w->snapshot

   The settled matrix's mean band fraction (the share of each row's
   slots the banded kernels sweep) is printed and recorded too.

   Machine-readable output lands in BENCH_kernels.json; CI runs this
   experiment and fails the build unless the aggregate (geomean)
   speedup is > 1, i.e. if dirty-row tracking ever stops paying for
   itself against sweeping every row. *)

open Cs_core

let min_sample_s = 0.05

let time_reps f =
  (* Calibrate once, then take the best of three samples of [reps]
     calls each — the minimum is the usual low-noise estimator on a
     shared machine. *)
  let t0 = Cs_obs.Clock.now () in
  f ();
  let once = Cs_obs.Clock.since t0 in
  let reps =
    if once <= 0.0 then 400 else max 1 (min 400 (int_of_float (min_sample_s /. once)))
  in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t1 = Cs_obs.Clock.now () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Cs_obs.Clock.since t1 in
    if dt < !best then best := dt
  done;
  (reps, !best)

(* Rows/sec for one pass under one protocol, starting from the settled
   matrix [settled]. *)
let bench_pass ~dirty ctx settled pass =
  let w = Weights.copy settled in
  let snapshot = Weights.copy settled in
  let step =
    if dirty then fun () ->
      Weights.clear_touched w;
      pass.Pass.apply ctx w;
      Weights.normalize_touched w;
      ignore (Weights.validate_touched w);
      Weights.sync_rows ~rows:(Weights.touched_rows w) ~src:w ~dst:snapshot
    else fun () ->
      Weights.blit ~src:w ~dst:snapshot;
      pass.Pass.apply ctx w;
      Weights.normalize_all w;
      ignore (Weights.validate w)
  in
  let reps, elapsed = time_reps step in
  if elapsed > 0.0 then float_of_int (Weights.n w * reps) /. elapsed else 0.0

let kernels () =
  Report.section "Kernels: dirty-row vs full-sweep weight-matrix protocol (extension)";
  let machine = Cs_machine.Vliw.create ~n_clusters:4 () in
  let region = Cs_workloads.Sha.generate ~scale:4 ~clusters:4 () in
  let ctx = Context.make ~machine region in
  let passes = Sequence.vliw_default () in
  let n = Context.n_instrs ctx and nc = Context.n_clusters ctx and nt = ctx.Context.nt in
  Printf.printf "workload sha (scale 4), machine vliw-4c: n=%d nc=%d nt=%d\n%!" n nc nt;
  (* Settle once into a realistic mid-convergence matrix: one full
     sequence application, normalized. *)
  let settled = Weights.create ~n ~nc ~nt in
  List.iter
    (fun p ->
      p.Pass.apply ctx settled;
      Weights.normalize_all settled)
    passes;
  Weights.clear_touched settled;
  (* Mean share of a row's nt slots inside its band: the part of each
     row the kernels sweep. *)
  let band_fraction =
    let live = ref 0 in
    for i = 0 to n - 1 do
      let lo, hi = Weights.band settled i in
      live := !live + max 0 (hi - lo + 1)
    done;
    if n = 0 then 0.0 else float_of_int !live /. float_of_int (n * nt)
  in
  Printf.printf "settled matrix: mean band fraction %.3f of nt\n%!" band_fraction;
  Printf.printf "\n%-10s %15s %15s %9s\n" "pass" "full rows/s" "dirty rows/s" "speedup";
  let rows =
    (* Both protocols measured back to back per pass, so slow drift in
       machine load cancels out of the ratio. *)
    List.map
      (fun pass ->
        let full = bench_pass ~dirty:false ctx settled pass in
        let dirty = bench_pass ~dirty:true ctx settled pass in
        let s = if full > 0.0 then dirty /. full else 0.0 in
        Printf.printf "%-10s %15.0f %15.0f %8.2fx\n%!" pass.Pass.name full dirty s;
        (pass.Pass.name, full, dirty, s))
      passes
  in
  let agg = Cs_util.Stats.geomean (List.map (fun (_, _, _, s) -> s) rows) in
  Printf.printf "\naggregate speedup (geomean): %.2fx\n" agg;
  let open Cs_obs.Json in
  let json =
    Obj
      [ ("experiment", Str "kernels");
        ("workload", Str "sha-scale4");
        ("machine", Str "vliw-4c");
        ("n", Num (float_of_int n));
        ("nc", Num (float_of_int nc));
        ("nt", Num (float_of_int nt));
        ("band_fraction", Num band_fraction);
        ( "passes",
          List
            (List.map
               (fun (name, full, dirty, s) ->
                 Obj
                   [ ("pass", Str name);
                     ("full_rows_per_s", Num full);
                     ("dirty_rows_per_s", Num dirty);
                     ("speedup", Num s) ])
               rows) );
        ("aggregate_speedup_geomean", Num agg);
        ("faster_than_full_sweep", Bool (agg > 1.0)) ]
  in
  Cs_util.Fsio.write_atomic ~path:"BENCH_kernels.json" (to_string json ^ "\n");
  Printf.printf "\nwrote BENCH_kernels.json\n"
