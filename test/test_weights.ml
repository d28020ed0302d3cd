(* Tests for the preference matrix, including qcheck invariants. *)

(* Seed QCheck's Random.State from Cs_util.Rng so `dune runtest` is
   bit-reproducible (to_alcotest's default state is self_init'd). *)
let to_alcotest test =
  let rng = Cs_util.Rng.create 0xB17_5EED in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make (Array.init 8 (fun _ -> Cs_util.Rng.int rng 0x3FFFFFFF)))
    test

open Cs_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let ok_invariants w =
  match Weights.check_invariants w with
  | Ok () -> true
  | Error msg ->
    Printf.eprintf "invariant failure: %s\n" msg;
    false

let test_create_uniform () =
  let w = Weights.create ~n:2 ~nc:3 ~nt:4 in
  check_float "uniform entry" (1.0 /. 12.0) (Weights.get w 0 1 2);
  check_float "cluster marginal" (1.0 /. 3.0) (Weights.cluster_weight w 0 0);
  check_float "time marginal" (1.0 /. 4.0) (Weights.time_weight w 1 3);
  check_bool "invariants" true (ok_invariants w)

let test_set_updates_marginals () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:2 in
  Weights.set w 0 1 0 0.5;
  check_float "cluster sum" 0.75 (Weights.cluster_weight w 0 1);
  check_float "time sum" 0.75 (Weights.time_weight w 0 0)

let test_set_rejects_negative () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:2 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Weights.set: weight must be finite and >= 0") (fun () ->
      Weights.set w 0 0 0 (-0.1))

let test_index_bounds () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:2 in
  Alcotest.check_raises "oob" (Invalid_argument "Weights: index out of range") (fun () ->
      ignore (Weights.get w 0 2 0))

let test_scale_cluster () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:3 in
  Weights.scale_cluster w 0 1 2.0;
  Weights.normalize w 0;
  check_bool "cluster 1 preferred" true (Weights.preferred_cluster w 0 = 1);
  check_bool "invariants" true (ok_invariants w)

let test_scale_time () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:3 in
  Weights.scale_time w 0 2 3.0;
  Weights.normalize w 0;
  check_int "slot 2 preferred" 2 (Weights.preferred_time w 0)

let test_normalize_restores_sum () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:2 in
  Weights.scale w 0 0 0 7.0;
  Weights.normalize w 0;
  check_bool "invariants" true (ok_invariants w);
  check_float "total 1" 1.0 (Weights.row_total w 0)

let test_normalize_zero_row_resets_uniform () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:2 in
  for c = 0 to 1 do
    for t = 0 to 1 do
      Weights.set w 0 c t 0.0
    done
  done;
  Weights.normalize w 0;
  check_float "uniform again" 0.25 (Weights.get w 0 1 1);
  check_bool "invariants" true (ok_invariants w)

let test_preferred_tie_break () =
  let w = Weights.create ~n:1 ~nc:3 ~nt:1 in
  check_int "smallest cluster on tie" 0 (Weights.preferred_cluster w 0);
  check_int "smallest slot on tie" 0 (Weights.preferred_time w 0)

let test_runnerup () =
  let w = Weights.create ~n:1 ~nc:3 ~nt:1 in
  Weights.set w 0 0 0 0.5;
  Weights.set w 0 1 0 0.3;
  Weights.set w 0 2 0 0.2;
  check_bool "runner-up is 1" true (Weights.runnerup_cluster w 0 = Some 1);
  let single = Weights.create ~n:1 ~nc:1 ~nt:2 in
  check_bool "no runner-up" true (Weights.runnerup_cluster single 0 = None)

let test_confidence () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:1 in
  Weights.set w 0 0 0 0.8;
  Weights.set w 0 1 0 0.2;
  check_float "ratio 4" 4.0 (Weights.confidence w 0);
  Weights.set w 0 1 0 0.0;
  check_float "sentinel when runner-up zero" Weights.confidence_sentinel
    (Weights.confidence w 0)

(* Regression for the old behavior where a zero runner-up returned
   [infinity] and poisoned telemetry means downstream. *)
let test_confidence_sentinel () =
  check_bool "sentinel is finite" true (Float.is_finite Weights.confidence_sentinel);
  let w = Weights.create ~n:1 ~nc:2 ~nt:1 in
  Weights.set w 0 1 0 0.0;
  check_bool "always finite" true (Float.is_finite (Weights.confidence w 0));
  (* Single-cluster machines have no runner-up at all. *)
  let solo = Weights.create ~n:1 ~nc:1 ~nt:3 in
  check_float "no runner-up" Weights.confidence_sentinel (Weights.confidence solo 0);
  (* A huge-but-finite ratio is clamped to the sentinel, so the sentinel
     is a true upper bound, not just a replacement for inf. *)
  let skew = Weights.create ~n:1 ~nc:2 ~nt:1 in
  Weights.set skew 0 0 0 1.0;
  Weights.set skew 0 1 0 1e-12;
  check_float "clamped" Weights.confidence_sentinel (Weights.confidence skew 0);
  (* And telemetry aggregation over such rows stays finite. *)
  check_bool "mean confidence finite" true
    (Float.is_finite (Telemetry.mean_confidence w))

let test_blend () =
  let w = Weights.create ~n:2 ~nc:2 ~nt:1 in
  Weights.set w 0 0 0 1.0;
  Weights.set w 0 1 0 0.0;
  Weights.set w 1 0 0 0.0;
  Weights.set w 1 1 0 1.0;
  Weights.blend w ~dst:1 ~src:0 ~keep:0.25;
  check_float "blended" 0.75 (Weights.get w 1 0 0);
  check_float "blended other" 0.25 (Weights.get w 1 1 0);
  check_bool "src untouched" true (Weights.get w 0 0 0 = 1.0)

let test_blend_self_noop () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:1 in
  Weights.blend w ~dst:0 ~src:0 ~keep:0.5;
  check_float "unchanged" 0.5 (Weights.get w 0 0 0)

let test_blend_rejects_bad_keep () =
  let w = Weights.create ~n:2 ~nc:2 ~nt:1 in
  Alcotest.check_raises "keep > 1" (Invalid_argument "Weights.blend: keep must be in [0,1]")
    (fun () -> Weights.blend w ~dst:0 ~src:1 ~keep:1.5)

let test_copy_is_deep () =
  let w = Weights.create ~n:1 ~nc:2 ~nt:1 in
  let c = Weights.copy w in
  Weights.set w 0 0 0 0.9;
  check_float "copy unchanged" 0.5 (Weights.get c 0 0 0)

let test_blit_restores () =
  let w = Weights.create ~n:2 ~nc:2 ~nt:2 in
  Weights.scale_cluster w 0 1 4.0;
  Weights.normalize_all w;
  let snapshot = Weights.copy w in
  Weights.scale_cluster w 0 0 9.0;
  Weights.normalize_all w;
  Weights.blit ~src:snapshot ~dst:w;
  check_float "entry restored" (Weights.get snapshot 0 1 0) (Weights.get w 0 1 0);
  check_int "preference restored" 1 (Weights.preferred_cluster w 0);
  check_bool "caches restored too" true (ok_invariants w);
  let small = Weights.create ~n:1 ~nc:2 ~nt:2 in
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Weights.blit: dimension mismatch") (fun () ->
      Weights.blit ~src:small ~dst:w)

let test_validate_gate () =
  let w = Weights.create ~n:2 ~nc:2 ~nt:2 in
  check_bool "fresh matrix sane" true (Weights.validate w = Ok ());
  (* An un-normalized row is exactly what a misbehaving pass leaves. *)
  Weights.set w 0 0 0 5.0;
  check_bool "row sum off" true (Result.is_error (Weights.validate w));
  Weights.normalize w 0;
  check_bool "normalize repairs" true (Weights.validate w = Ok ());
  (* Non-finite weights cannot enter through the API at all; validate's
     finiteness arm is defense in depth behind this gate. *)
  Alcotest.check_raises "set rejects nan"
    (Invalid_argument "Weights.set: weight must be finite and >= 0") (fun () ->
      Weights.set w 1 0 0 Float.nan)

(* The band follows the kernels: masking narrows it, blend takes the
   union, a nonzero set outside widens it, the uniform reset restores
   every slot, and a non-finite factor is refused even on an empty row. *)
let test_bands () =
  let band = Alcotest.(check (pair int int)) in
  let w = Weights.create ~n:3 ~nc:2 ~nt:8 in
  band "fresh row spans every slot" (0, 7) (Weights.band w 0);
  Weights.mask_time_window w 0 ~lo:2 ~hi:4;
  Weights.mask_time_window w 1 ~lo:5 ~hi:6;
  band "mask narrows" (2, 4) (Weights.band w 0);
  Weights.mask_time_window w 0 ~lo:3 ~hi:9;
  band "only ever narrows" (3, 4) (Weights.band w 0);
  Weights.normalize_all w;
  check_bool "invariants after masking" true (ok_invariants w);
  Weights.blend w ~dst:0 ~src:1 ~keep:0.5;
  band "blend takes the union" (3, 6) (Weights.band w 0);
  Weights.set w 1 1 0 0.25;
  band "nonzero set outside widens" (0, 6) (Weights.band w 1);
  Weights.set w 2 0 0 0.0;
  band "zero set stays inside" (0, 7) (Weights.band w 2);
  Weights.normalize_all w;
  check_bool "invariants after widening" true (ok_invariants w);
  Weights.mask_time_window w 2 ~lo:5 ~hi:4;
  band "inverted window empties" (8, -1) (Weights.band w 2);
  Weights.scale_cluster w 2 0 (-2.0);
  check_float "negative factor on an empty row is a no-op" 0.0 (Weights.row_total w 2);
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument "Weights.set: weight must be finite and >= 0") f)
    [ ("scale_cluster inf on empty row", fun () -> Weights.scale_cluster w 2 1 infinity);
      ("scale_time nan on empty row", fun () -> Weights.scale_time w 2 3 Float.nan);
      ( "scale_clusters -inf on empty row",
        fun () -> Weights.scale_clusters w 2 [| 1.0; neg_infinity |] ) ];
  Weights.normalize w 2;
  band "uniform reset restores every slot" (0, 7) (Weights.band w 2);
  check_float "uniform entry" (1.0 /. 16.0) (Weights.get w 2 1 7);
  check_bool "invariants after reset" true (ok_invariants w)

let test_preferred_clusters_snapshot () =
  let w = Weights.create ~n:3 ~nc:2 ~nt:1 in
  Weights.set w 1 1 0 0.9;
  Alcotest.(check (array int)) "snapshot" [| 0; 1; 0 |] (Weights.preferred_clusters w)

let test_pp_cluster_map () =
  let w = Weights.create ~n:2 ~nc:2 ~nt:1 in
  let s = Format.asprintf "%a" Weights.pp_cluster_map w in
  check_bool "non-empty" true (String.length s > 10)

(* --- Dirty-row tracking ------------------------------------------- *)

let test_fresh_matrix_untouched () =
  let w = Weights.create ~n:5 ~nc:2 ~nt:2 in
  check_int "nothing touched" 0 (Weights.touched_count w);
  check_bool "row 0 clean" false (Weights.is_touched w 0)

let test_touched_marks_exactly_written_rows () =
  let w = Weights.create ~n:6 ~nc:2 ~nt:2 in
  Weights.set w 1 0 0 0.9;
  Weights.set w 4 1 1 0.9;
  Weights.set w 1 0 1 0.1;
  (* second write to row 1 *)
  check_int "two rows dirty" 2 (Weights.touched_count w);
  Alcotest.(check (list int)) "ascending ids" [ 1; 4 ] (Weights.touched_rows w);
  check_bool "row 0 clean" false (Weights.is_touched w 0);
  check_bool "row 1 dirty" true (Weights.is_touched w 1);
  Weights.clear_touched w;
  check_int "cleared" 0 (Weights.touched_count w);
  Alcotest.(check (list int)) "empty" [] (Weights.touched_rows w)

let test_noop_writes_do_not_dirty () =
  let w = Weights.create ~n:3 ~nc:2 ~nt:2 in
  (* Writing the value already there, scaling by 1.0 and adding 0.0 are
     all no-ops and must not dirty the row — this is what lets FEASIBLE
     / LOAD leave the touched set empty on healthy machines. *)
  Weights.set w 0 0 0 (Weights.get w 0 0 0);
  Weights.scale w 1 0 0 1.0;
  Weights.scale_cluster w 1 1 1.0;
  Weights.scale_clusters w 2 [| 1.0; 1.0 |];
  Weights.add w 2 1 1 0.0;
  Weights.map_row w 2 (fun _ _ v -> v);
  check_int "no dirty rows" 0 (Weights.touched_count w)

let test_normalize_touched_only_touched () =
  let w = Weights.create ~n:3 ~nc:2 ~nt:2 in
  Weights.scale w 1 0 0 3.0;
  Weights.normalize_touched w;
  check_float "touched row renormalized" 1.0 (Weights.row_total w 1);
  check_bool "invariants" true (ok_invariants w)

let test_sync_rows_restores_exact_rows () =
  let w = Weights.create ~n:4 ~nc:2 ~nt:4 in
  Weights.scale_cluster w 0 1 4.0;
  Weights.scale_cluster w 2 0 7.0;
  Weights.mask_time_window w 1 ~lo:1 ~hi:2;
  Weights.normalize_all w;
  let snapshot = Weights.copy w in
  Weights.clear_touched w;
  Weights.scale_cluster w 1 0 9.0;
  (* A write outside row 1's band widens it; rollback must clear it. *)
  Weights.set w 1 1 3 0.5;
  Weights.scale_cluster w 3 1 5.0;
  Weights.normalize_touched w;
  Alcotest.(check (list int)) "pass wrote rows 1,3" [ 1; 3 ] (Weights.touched_rows w);
  (* Rollback: only the touched rows come back from the snapshot. *)
  Weights.sync_rows ~rows:(Weights.touched_rows w) ~src:snapshot ~dst:w;
  for i = 0 to 3 do
    Alcotest.(check (pair int int)) "band restored" (Weights.band snapshot i)
      (Weights.band w i);
    for c = 0 to 1 do
      for t = 0 to 3 do
        check_bool "entry bit-identical" true
          (Weights.get w i c t = Weights.get snapshot i c t)
      done;
      check_bool "marginal bit-identical" true
        (Weights.cluster_weight w i c = Weights.cluster_weight snapshot i c)
    done;
    for t = 0 to 3 do
      check_bool "time marginal bit-identical" true
        (Weights.time_weight w i t = Weights.time_weight snapshot i t)
    done
  done;
  check_bool "caches consistent" true (ok_invariants w)

(* --- Property suites, run against both implementations ------------- *)

(* One generated op per kernel in the public API. Scaling factors are
   mostly ordinary, but also negative (-0.0 included) and non-finite,
   so an op may raise part way through; the sequence goes on from the
   state it left. *)
type op =
  | Set of int * int * int * float
  | Add of int * int * int * float
  | Scale of int * int * int * float
  | Scale_cluster of int * int * float
  | Scale_time of int * int * float
  | Scale_clusters of int * float array
  | Map_row of int * float
  | Mask_time_window of int * int * int
  | Blend of int * int * float
  | Normalize of int
  | Normalize_all

let pn = 4
let pnc = 3
let pnt = 5

let factor_gen =
  QCheck.Gen.(
    frequency
      [
        (8, float_bound_inclusive 5.0);
        (1, map Float.neg (float_bound_inclusive 5.0));
        (1, oneofl [ -0.0; Float.infinity; Float.neg_infinity; Float.nan ]);
      ])

let scale_gen i =
  QCheck.Gen.(
    let c = int_bound (pnc - 1) and t = int_bound (pnt - 1) in
    frequency
      [
        (1, map (fun (c, f) -> Scale_cluster (i, c, f)) (pair c factor_gen));
        (1, map (fun (t, f) -> Scale_time (i, t, f)) (pair t factor_gen));
        ( 1,
          map
            (fun fs -> Scale_clusters (i, Array.of_list fs))
            (list_repeat pnc factor_gen) );
      ])

(* Ops come in short groups, so a row emptied by an inverted window is
   often scaled right away, before anything refills it. *)
let op_group_gen =
  QCheck.Gen.(
    let i = int_bound (pn - 1) and c = int_bound (pnc - 1) and t = int_bound (pnt - 1) in
    let v = float_bound_inclusive 5.0 in
    let one g = map (fun op -> [ op ]) g in
    frequency
      [
        (3, one (map (fun (i, c, t, v) -> Set (i, c, t, v)) (tup4 i c t v)));
        (3, one (map (fun (i, c, t, v) -> Add (i, c, t, v)) (tup4 i c t v)));
        (3, one (map (fun (i, c, t, v) -> Scale (i, c, t, v)) (tup4 i c t v)));
        (6, one (i >>= scale_gen));
        (2, one (map (fun (i, f) -> Map_row (i, f)) (tup2 i v)));
        (* -1..pnt: empty, inverted and out-of-range windows included. *)
        ( 2,
          let bound = int_range (-1) pnt in
          one (map (fun (i, lo, hi) -> Mask_time_window (i, lo, hi)) (tup3 i bound bound)) );
        ( 2,
          i >>= fun i ->
          map2
            (fun t scale -> [ Mask_time_window (i, t + 1, t); scale ])
            (int_range (-1) (pnt - 1)) (scale_gen i) );
        ( 2,
          one
            (map (fun (d, s, k) -> Blend (d, s, k)) (tup3 i i (float_bound_inclusive 1.0)))
        );
        (1, one (map (fun i -> Normalize i) i));
        (1, one (return Normalize_all));
      ])

let ops_gen = QCheck.Gen.(map List.concat (list_size (int_bound 60) op_group_gen))

let apply_op w = function
  | Set (i, c, t, v) -> Weights.set w i c t v
  | Add (i, c, t, v) -> Weights.add w i c t v
  | Scale (i, c, t, v) -> Weights.scale w i c t v
  | Scale_cluster (i, c, v) -> Weights.scale_cluster w i c v
  | Scale_time (i, t, v) -> Weights.scale_time w i t v
  | Scale_clusters (i, fs) -> Weights.scale_clusters w i fs
  | Map_row (i, f) -> Weights.map_row w i (fun _ _ v -> v *. f)
  | Mask_time_window (i, lo, hi) -> Weights.mask_time_window w i ~lo ~hi
  | Blend (d, s, k) -> Weights.blend w ~dst:d ~src:s ~keep:k
  | Normalize i -> Weights.normalize w i
  | Normalize_all -> Weights.normalize_all w

let apply_ref r = function
  | Set (i, c, t, v) -> Weights_ref.set r i c t v
  | Add (i, c, t, v) -> Weights_ref.add r i c t v
  | Scale (i, c, t, v) -> Weights_ref.scale r i c t v
  | Scale_cluster (i, c, v) -> Weights_ref.scale_cluster r i c v
  | Scale_time (i, t, v) -> Weights_ref.scale_time r i t v
  | Scale_clusters (i, fs) -> Weights_ref.scale_clusters r i fs
  | Map_row (i, f) -> Weights_ref.map_row r i (fun _ _ v -> v *. f)
  | Mask_time_window (i, lo, hi) -> Weights_ref.mask_time_window r i ~lo ~hi
  | Blend (d, s, k) -> Weights_ref.blend r ~dst:d ~src:s ~keep:k
  | Normalize i -> Weights_ref.normalize r i
  | Normalize_all -> Weights_ref.normalize_all r

(* Runs an op, returning the exception it raised, if any. *)
let outcome f = match f () with () -> None | exception e -> Some e

let run_ops ops =
  let w = Weights.create ~n:pn ~nc:pnc ~nt:pnt in
  List.iter (fun op -> ignore (outcome (fun () -> apply_op w op))) ops;
  w

(* ISSUE invariants, checked directly (not only via check_invariants):
   rows sum to 1 within 1e-9, entries in [0,1], and each cached
   marginal equals its freshly recomputed sum. *)
let holds_invariants w =
  let ok = ref true in
  for i = 0 to pn - 1 do
    let row_sum = ref 0.0 in
    for c = 0 to pnc - 1 do
      let csum = ref 0.0 in
      for t = 0 to pnt - 1 do
        let v = Weights.get w i c t in
        if not (v >= 0.0 && v <= 1.0 +. 1e-9) then ok := false;
        csum := !csum +. v;
        row_sum := !row_sum +. v
      done;
      if Float.abs (!csum -. Weights.cluster_weight w i c) > 1e-9 then ok := false
    done;
    for t = 0 to pnt - 1 do
      let tsum = ref 0.0 in
      for c = 0 to pnc - 1 do
        tsum := !tsum +. Weights.get w i c t
      done;
      if Float.abs (!tsum -. Weights.time_weight w i t) > 1e-9 then ok := false
    done;
    if Float.abs (!row_sum -. 1.0) > 1e-9 then ok := false;
    if Float.abs (!row_sum -. Weights.row_total w i) > 1e-9 then ok := false
  done;
  !ok && ok_invariants w

let test_ops_invariants_qcheck =
  let prop =
    QCheck.Test.make ~count:300 ~name:"op sequences keep invariants (flat)"
      (QCheck.make ops_gen)
      (fun ops ->
        let w = run_ops ops in
        Weights.normalize_all w;
        holds_invariants w)
  in
  to_alcotest prop

(* The fused kernels against the per-element reference: the same FP
   ops in the same order, so after every op both sides must have
   raised the same exception (or none) and hold bit-identical entries,
   marginals and touched flags (no epsilon anywhere), and agree on
   every row's preferred cluster and slot. The banded side
   must also hold +0.0 at every slot outside each row's band. *)
let test_ops_reference_qcheck =
  let prop =
    QCheck.Test.make ~count:1000 ~name:"flat = reference, bit for bit"
      (QCheck.make ops_gen)
      (fun ops ->
        let w = Weights.create ~n:pn ~nc:pnc ~nt:pnt in
        let r = Weights_ref.create ~n:pn ~nc:pnc ~nt:pnt in
        let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        let ok = ref true in
        let expect b = if not b then ok := false in
        List.iter
          (fun op ->
            let raised = outcome (fun () -> apply_op w op) in
            expect (raised = outcome (fun () -> apply_ref r op));
            for i = 0 to pn - 1 do
              let lo, hi = Weights.band w i in
              expect (Weights.is_touched w i = Weights_ref.is_touched r i);
              expect (Weights.preferred_cluster w i = Weights_ref.preferred_cluster r i);
              expect (Weights.preferred_time w i = Weights_ref.preferred_time r i);
              expect (same (Weights.row_total w i) (Weights_ref.row_total r i));
              for c = 0 to pnc - 1 do
                expect
                  (same (Weights.cluster_weight w i c) (Weights_ref.cluster_weight r i c));
                for t = 0 to pnt - 1 do
                  expect (same (Weights.get w i c t) (Weights_ref.get r i c t));
                  if t < lo || t > hi then expect (same (Weights.get w i c t) 0.0)
                done
              done;
              for t = 0 to pnt - 1 do
                expect (same (Weights.time_weight w i t) (Weights_ref.time_weight r i t))
              done
            done)
          ops;
        !ok)
  in
  to_alcotest prop

let test_ops_dirty_exact_qcheck =
  let prop =
    QCheck.Test.make ~count:300 ~name:"touched set = exactly the written rows"
      (QCheck.make ops_gen)
      (fun ops ->
        let w = Weights.create ~n:pn ~nc:pnc ~nt:pnt in
        let before = Weights.copy w in
        List.iter (fun op -> ignore (outcome (fun () -> apply_op w op))) ops;
        (* Every changed row must be flagged: an unflagged row must hold
           exactly its original bits (flagged-but-unchanged is fine — a
           write can overwrite a value with itself, e.g. add x then
           subtract nothing; the flag records intent-to-write that
           changed the row at some point). *)
        let ok = ref true in
        for i = 0 to pn - 1 do
          if not (Weights.is_touched w i) then
            for c = 0 to pnc - 1 do
              for t = 0 to pnt - 1 do
                if Weights.get w i c t <> Weights.get before i c t then ok := false
              done
            done
        done;
        !ok)
  in
  to_alcotest prop

(* qcheck: random edit sequences + normalize preserve invariants. *)
let edit_gen =
  QCheck.Gen.(
    list_size (int_bound 60)
      (tup4 (int_bound 3) (int_bound 2) (int_bound 4) (float_bound_inclusive 5.0)))

let test_random_edits_qcheck =
  let prop =
    QCheck.Test.make ~count:300 ~name:"edits + normalize keep invariants"
      (QCheck.make edit_gen)
      (fun edits ->
        let w = Weights.create ~n:4 ~nc:3 ~nt:5 in
        List.iter
          (fun (i, c, t, v) ->
            match (i + c + t) mod 3 with
            | 0 -> Weights.set w i c t v
            | 1 -> Weights.add w i c t v
            | _ -> Weights.scale w i c t v)
          edits;
        Weights.normalize_all w;
        match Weights.check_invariants w with Ok () -> true | Error _ -> false)
  in
  to_alcotest prop

let test_random_blends_qcheck =
  let gen = QCheck.Gen.(list_size (int_bound 40) (tup3 (int_bound 3) (int_bound 3) (float_bound_inclusive 1.0))) in
  let prop =
    QCheck.Test.make ~count:200 ~name:"blends keep invariants" (QCheck.make gen)
      (fun blends ->
        let w = Weights.create ~n:4 ~nc:2 ~nt:3 in
        List.iter (fun (d, s, keep) -> Weights.blend w ~dst:d ~src:s ~keep) blends;
        Weights.normalize_all w;
        match Weights.check_invariants w with Ok () -> true | Error _ -> false)
  in
  to_alcotest prop

let test_marginal_consistency_qcheck =
  let prop =
    QCheck.Test.make ~count:200 ~name:"preferred cluster maximizes marginal"
      (QCheck.make edit_gen)
      (fun edits ->
        let w = Weights.create ~n:4 ~nc:3 ~nt:5 in
        List.iter (fun (i, c, t, v) -> Weights.set w i c t v) edits;
        Weights.normalize_all w;
        let ok = ref true in
        for i = 0 to 3 do
          let p = Weights.preferred_cluster w i in
          for c = 0 to 2 do
            if Weights.cluster_weight w i c > Weights.cluster_weight w i p +. 1e-9 then
              ok := false
          done
        done;
        !ok)
  in
  to_alcotest prop

let () =
  Alcotest.run "cs_core.weights"
    [
      ( "weights",
        [
          Alcotest.test_case "create uniform" `Quick test_create_uniform;
          Alcotest.test_case "set updates marginals" `Quick test_set_updates_marginals;
          Alcotest.test_case "set rejects negative" `Quick test_set_rejects_negative;
          Alcotest.test_case "index bounds" `Quick test_index_bounds;
          Alcotest.test_case "scale cluster" `Quick test_scale_cluster;
          Alcotest.test_case "scale time" `Quick test_scale_time;
          Alcotest.test_case "normalize" `Quick test_normalize_restores_sum;
          Alcotest.test_case "normalize zero row" `Quick test_normalize_zero_row_resets_uniform;
          Alcotest.test_case "tie break" `Quick test_preferred_tie_break;
          Alcotest.test_case "runner-up" `Quick test_runnerup;
          Alcotest.test_case "confidence" `Quick test_confidence;
          Alcotest.test_case "confidence sentinel" `Quick test_confidence_sentinel;
          Alcotest.test_case "blend" `Quick test_blend;
          Alcotest.test_case "blend self noop" `Quick test_blend_self_noop;
          Alcotest.test_case "blend bad keep" `Quick test_blend_rejects_bad_keep;
          Alcotest.test_case "copy deep" `Quick test_copy_is_deep;
          Alcotest.test_case "blit restores" `Quick test_blit_restores;
          Alcotest.test_case "validate gate" `Quick test_validate_gate;
          Alcotest.test_case "snapshot" `Quick test_preferred_clusters_snapshot;
          Alcotest.test_case "bands narrow and widen" `Quick test_bands;
          Alcotest.test_case "cluster map render" `Quick test_pp_cluster_map;
        ] );
      ( "dirty",
        [
          Alcotest.test_case "fresh matrix untouched" `Quick test_fresh_matrix_untouched;
          Alcotest.test_case "marks written rows" `Quick
            test_touched_marks_exactly_written_rows;
          Alcotest.test_case "no-op writes stay clean" `Quick
            test_noop_writes_do_not_dirty;
          Alcotest.test_case "normalize touched" `Quick
            test_normalize_touched_only_touched;
          Alcotest.test_case "sync_rows restores" `Quick
            test_sync_rows_restores_exact_rows;
        ] );
      ( "properties",
        [
          test_random_edits_qcheck; test_random_blends_qcheck;
          test_marginal_consistency_qcheck;
          test_ops_invariants_qcheck; test_ops_reference_qcheck;
          test_ops_dirty_exact_qcheck;
        ] );
    ]
