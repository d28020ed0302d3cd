(* Plain dense reference for [Cs_core.Weights], the unit-level oracle
   for its fused kernels.

   A float array walked element by element: every row operation is a
   loop of [set] calls, each write pushes its delta into the three
   marginals in the same order the production [set] does, and
   [normalize] / [blend] rebuild a row's marginals in [recompute_row]
   order (cluster sums c-major, then time sums, then the row total as
   the sum of cluster sums). No fusion, no unsafe access: this is the
   obvious implementation the fused kernels must match bit for bit. *)

type t = {
  n : int;
  nc : int;
  nt : int;
  data : float array;
  cluster_sum : float array;
  time_sum : float array;
  row_total : float array;
  touched : bool array;
}

let create ~n ~nc ~nt =
  let v = 1.0 /. float_of_int (nc * nt) in
  {
    n;
    nc;
    nt;
    data = Array.make (n * nc * nt) v;
    cluster_sum = Array.make (n * nc) (v *. float_of_int nt);
    time_sum = Array.make (n * nt) (v *. float_of_int nc);
    row_total = Array.make n (v *. float_of_int (nc * nt));
    touched = Array.make n false;
  }

let idx t i c tt = (((i * t.nc) + c) * t.nt) + tt
let get t i c tt = t.data.(idx t i c tt)
let cluster_weight t i c = t.cluster_sum.((i * t.nc) + c)
let time_weight t i tt = t.time_sum.((i * t.nt) + tt)
let row_total t i = t.row_total.(i)
let is_touched t i = t.touched.(i)

(* A value equal to the stored one stores nothing, and a stored zero is
   always +0.0: a zero scaled by a negative factor, or a positive entry
   scaled by -0.0, leaves +0.0 behind. *)
let set t i c tt v =
  if (not (Float.is_finite v)) || v < 0.0 then
    invalid_arg "Weights.set: weight must be finite and >= 0";
  let k = idx t i c tt in
  let delta = v -. t.data.(k) in
  if delta <> 0.0 then begin
    t.data.(k) <- (if v = 0.0 then 0.0 else v);
    let ci = (i * t.nc) + c and ti = (i * t.nt) + tt in
    t.cluster_sum.(ci) <- t.cluster_sum.(ci) +. delta;
    t.time_sum.(ti) <- t.time_sum.(ti) +. delta;
    t.row_total.(i) <- t.row_total.(i) +. delta;
    t.touched.(i) <- true
  end

let add t i c tt v = set t i c tt (get t i c tt +. v)
let scale t i c tt f = set t i c tt (get t i c tt *. f)

let map_row t i f =
  for c = 0 to t.nc - 1 do
    for tt = 0 to t.nt - 1 do
      set t i c tt (f c tt (get t i c tt))
    done
  done

let scale_cluster t i c f =
  for tt = 0 to t.nt - 1 do
    scale t i c tt f
  done

let scale_time t i tt f =
  for c = 0 to t.nc - 1 do
    scale t i c tt f
  done

let scale_clusters t i fs = Array.iteri (scale_cluster t i) fs

let mask_time_window t i ~lo ~hi =
  map_row t i (fun _ tt v -> if tt < lo || tt > hi then 0.0 else v)

let recompute_row t i =
  for c = 0 to t.nc - 1 do
    let s = ref 0.0 in
    for tt = 0 to t.nt - 1 do
      s := !s +. get t i c tt
    done;
    t.cluster_sum.((i * t.nc) + c) <- !s
  done;
  for tt = 0 to t.nt - 1 do
    let s = ref 0.0 in
    for c = 0 to t.nc - 1 do
      s := !s +. get t i c tt
    done;
    t.time_sum.((i * t.nt) + tt) <- !s
  done;
  let total = ref 0.0 in
  for c = 0 to t.nc - 1 do
    total := !total +. cluster_weight t i c
  done;
  t.row_total.(i) <- !total

let normalize t i =
  let total = ref 0.0 in
  for c = 0 to t.nc - 1 do
    for tt = 0 to t.nt - 1 do
      total := !total +. get t i c tt
    done
  done;
  let total = !total in
  let uniform = total <= 0.0 || not (Float.is_finite total) in
  for c = 0 to t.nc - 1 do
    for tt = 0 to t.nt - 1 do
      let k = idx t i c tt in
      let v = if uniform then 1.0 /. float_of_int (t.nc * t.nt) else t.data.(k) /. total in
      if v <> t.data.(k) then t.touched.(i) <- true;
      t.data.(k) <- v
    done
  done;
  recompute_row t i

let normalize_all t =
  for i = 0 to t.n - 1 do
    normalize t i
  done

let blend t ~dst ~src ~keep =
  if dst <> src then begin
    for c = 0 to t.nc - 1 do
      for tt = 0 to t.nt - 1 do
        let kd = idx t dst c tt in
        t.data.(kd) <- (keep *. t.data.(kd)) +. ((1.0 -. keep) *. get t src c tt)
      done
    done;
    t.touched.(dst) <- true;
    recompute_row t dst
  end

(* First index of the largest value over all slots (or clusters); a
   later value wins only by more than 1e-12. *)
let argmax count value =
  let best = ref 0 in
  for k = 1 to count - 1 do
    if value k > value !best +. 1e-12 then best := k
  done;
  !best

let preferred_cluster t i = argmax t.nc (cluster_weight t i)
let preferred_time t i = argmax t.nt (time_weight t i)
