(* The preference matrix lives in one contiguous instr-major float64
   block:

     index(i, c, t) = ((i * nc) + c) * nt + t

   so one instruction's whole row is a contiguous slice of
   nc * nt doubles, a (i, c) cluster lane is a contiguous run of nt
   doubles inside it, and a (i, t) time lane is an nt-strided walk.

   Banded rows. Each row carries a band [lo.(i), hi.(i)]: every entry
   of row i at a slot outside it is zero. INITTIME narrows a row's
   band to its [est, lst] window and every later pass keeps those
   zeros at zero, so each row kernel below runs over the band only,
   lane by lane in ascending slot order. An empty band is stored as
   [nt, -1], so the hull of two bands is [min lo, max hi].

   Skipping exact zeros changes no float result. A skipped entry is
   either a write whose delta would be 0 (the per-element chain
   skips those too) or a term of a sum that starts at +0.0, and
   adding a zero to such a sum leaves its bits alone. So each kernel
   still performs the *same floating-point operations in the same
   order* as the per-element [set] chain it replaces, and is
   bit-identical to that chain. test/weights_ref.ml is the plain
   dense reference the unit qcheck compares against, and
   test/test_golden.ml pins the driver's output over the fuzz seed
   space.

   Marginal caches (cluster sums, time sums, row totals) are
   maintained incrementally by every write and rebuilt exactly by
   [normalize]. Zeroing an entry leaves its cancellation residue in
   the time marginal, as the reference does, so each row also tracks
   a time-marginal extent [tlo.(i), thi.(i)] containing its band:
   every time sum outside it is +0.0. Only a marginal rebuild
   ([normalize], [blend]) shrinks the extent back to the band.

   A per-row dirty bit records which rows changed since the last
   [clear_touched], so renormalization, the driver's quarantine gate,
   and snapshot/rollback all touch only the rows a pass actually
   wrote. *)

type ba1 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  nc : int;
  nt : int;
  data : ba1; (* n * nc * nt *)
  cluster_sum : float array; (* n * nc *)
  time_sum : float array; (* n * nt *)
  row_total : float array; (* n *)
  lo : int array; (* n: band; entries outside [lo, hi] are zero *)
  hi : int array;
  tlo : int array; (* n: time-marginal extent, contains the band *)
  thi : int array;
  dirty : Bytes.t; (* n bytes: rows written since clear_touched *)
  mutable n_dirty : int;
}

let n t = t.n
let nc t = t.nc
let nt t = t.nt

let idx t i c tt = (((i * t.nc) + c) * t.nt) + tt

let create_ba len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len

let create ~n ~nc ~nt =
  if n < 0 || nc <= 0 || nt <= 0 then invalid_arg "Weights.create: bad dimensions";
  let v = 1.0 /. float_of_int (nc * nt) in
  let data = create_ba (n * nc * nt) in
  Bigarray.Array1.fill data v;
  {
    n;
    nc;
    nt;
    data;
    cluster_sum = Array.make (n * nc) (v *. float_of_int nt);
    time_sum = Array.make (n * nt) (v *. float_of_int nc);
    row_total = Array.make n (v *. float_of_int (nc * nt));
    lo = Array.make n 0;
    hi = Array.make n (nt - 1);
    tlo = Array.make n 0;
    thi = Array.make n (nt - 1);
    dirty = Bytes.make (max n 1) '\000';
    n_dirty = 0;
  }

let check_index t i c tt =
  if i < 0 || i >= t.n || c < 0 || c >= t.nc || tt < 0 || tt >= t.nt then
    invalid_arg "Weights: index out of range"

let check_row t i = if i < 0 || i >= t.n then invalid_arg "Weights: index out of range"

(* Finite and non-negative (-0.0 included): two comparisons that NaN
   fails, written so the kernels' loops inline them instead of making
   a call with a boxed float per element. *)
let[@inline] bad_value v = not (v >= 0.0 && v <= Float.max_float)
let reject_value () = invalid_arg "Weights.set: weight must be finite and >= 0"

(* A finite entry times a non-finite factor is never finite, so the
   per-element chain rejects such a factor at its first element,
   before any write. The banded kernels check it up front instead,
   which also rejects it on a row whose band is empty. *)
let check_factor f = if not (Float.is_finite f) then reject_value ()

let band t i =
  check_row t i;
  (t.lo.(i), t.hi.(i))

(* Set row [i]'s band, storing an empty one as [nt, -1]. *)
let set_band t i lo hi =
  if lo > hi then begin
    t.lo.(i) <- t.nt;
    t.hi.(i) <- -1
  end
  else begin
    t.lo.(i) <- lo;
    t.hi.(i) <- hi
  end

(* --- dirty-row tracking ------------------------------------------- *)

let mark_touched t i =
  if Bytes.unsafe_get t.dirty i = '\000' then begin
    Bytes.unsafe_set t.dirty i '\001';
    t.n_dirty <- t.n_dirty + 1
  end

let is_touched t i =
  check_row t i;
  Bytes.unsafe_get t.dirty i <> '\000'

let touched_count t = t.n_dirty

let touched_rows t =
  let rows = ref [] in
  for i = t.n - 1 downto 0 do
    if Bytes.unsafe_get t.dirty i <> '\000' then rows := i :: !rows
  done;
  !rows

let clear_touched t =
  if t.n_dirty > 0 then begin
    Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
    t.n_dirty <- 0
  end

(* --- element access ------------------------------------------------ *)

let get t i c tt =
  check_index t i c tt;
  Bigarray.Array1.unsafe_get t.data (idx t i c tt)

(* A write that changes an entry funnels its delta into all three
   marginal caches; fused kernels below replicate exactly this update
   sequence. A delta of 0 (value unchanged) stores nothing and leaves
   the row clean, so no-op writes — e.g. FEASIBLE multiplying feasible
   lanes by 1.0 — do not dirty rows. A nonzero value outside the band
   widens the band (and the extent) to reach it; clearing an entry
   needs no widening, as a nonzero entry already lies in the band.
   Every store adds +0.0, which turns -0.0 (a positive entry times
   -0.0) into +0.0 and leaves any other value alone, so a zero entry
   always holds +0.0. *)
let set t i c tt v =
  check_index t i c tt;
  if bad_value v then reject_value ();
  let k = idx t i c tt in
  let delta = v -. Bigarray.Array1.unsafe_get t.data k in
  if delta <> 0.0 then begin
    Bigarray.Array1.unsafe_set t.data k (v +. 0.0);
    if tt < t.lo.(i) then t.lo.(i) <- tt;
    if tt > t.hi.(i) then t.hi.(i) <- tt;
    if tt < t.tlo.(i) then t.tlo.(i) <- tt;
    if tt > t.thi.(i) then t.thi.(i) <- tt;
    let ci = (i * t.nc) + c and ti = (i * t.nt) + tt in
    t.cluster_sum.(ci) <- t.cluster_sum.(ci) +. delta;
    t.time_sum.(ti) <- t.time_sum.(ti) +. delta;
    t.row_total.(i) <- t.row_total.(i) +. delta;
    mark_touched t i
  end

let add t i c tt v = set t i c tt (get t i c tt +. v)
let scale t i c tt f = set t i c tt (get t i c tt *. f)

(* --- fused row kernels ---------------------------------------------
   Each kernel is one loop per lane over the row's band, performing
   exactly the arithmetic of the per-element [set]/[get] chain,
   unboxed and unchecked. *)

(* Multiply lane (i, c) by the finite factor [f] over the band. A
   factor of 1.0 changes no entry, so the lane is skipped. The lane's
   cluster sum and the row total accumulate in locals (the same adds
   in the same order) and the loop only notes a rejected value, so it
   makes no calls; the entries before a rejected one stay scaled, as
   in the per-element chain. *)
let scale_lane t i c f =
  if f <> 1.0 then begin
    let ba = t.data and nt = t.nt and hi = t.hi.(i) in
    let base = ((i * t.nc) + c) * nt and ci = (i * t.nc) + c and ti = i * nt in
    let ts = t.time_sum in
    let cs = ref t.cluster_sum.(ci) and rt = ref t.row_total.(i) in
    let tt = ref t.lo.(i) and rejected = ref false and changed = ref false in
    while !tt <= hi do
      let k = base + !tt in
      let old = Bigarray.Array1.unsafe_get ba k in
      let v = old *. f in
      if bad_value v then begin
        rejected := true;
        tt := hi + 1
      end
      else begin
        let delta = v -. old in
        if delta <> 0.0 then begin
          Bigarray.Array1.unsafe_set ba k (v +. 0.0);
          cs := !cs +. delta;
          Array.unsafe_set ts (ti + !tt) (Array.unsafe_get ts (ti + !tt) +. delta);
          rt := !rt +. delta;
          changed := true
        end;
        incr tt
      end
    done;
    t.cluster_sum.(ci) <- !cs;
    t.row_total.(i) <- !rt;
    if !changed then mark_touched t i;
    if !rejected then reject_value ()
  end

let scale_cluster t i c f =
  if i < 0 || i >= t.n || c < 0 || c >= t.nc then invalid_arg "Weights: index out of range";
  check_factor f;
  scale_lane t i c f

let scale_time t i tt f =
  if i < 0 || i >= t.n || tt < 0 || tt >= t.nt then invalid_arg "Weights: index out of range";
  check_factor f;
  if tt >= t.lo.(i) && tt <= t.hi.(i) then begin
    let ba = t.data and nt = t.nt in
    let ti = (i * nt) + tt in
    let cs0 = i * t.nc in
    let cs = t.cluster_sum and ts = t.time_sum and rt = t.row_total in
    for c = 0 to t.nc - 1 do
      let k = (((i * t.nc) + c) * nt) + tt in
      let old = Bigarray.Array1.unsafe_get ba k in
      let v = old *. f in
      if bad_value v then reject_value ();
      let delta = v -. old in
      if delta <> 0.0 then begin
        Bigarray.Array1.unsafe_set ba k (v +. 0.0);
        Array.unsafe_set cs (cs0 + c) (Array.unsafe_get cs (cs0 + c) +. delta);
        Array.unsafe_set ts ti (Array.unsafe_get ts ti +. delta);
        Array.unsafe_set rt i (Array.unsafe_get rt i +. delta);
        mark_touched t i
      end
    done
  end

(* One factor per cluster applied to a whole row in a single sweep —
   the shape LOAD / COMM / FEASIBLE / PLACEPROP reduce to. Equivalent
   to [scale_cluster t i c factors.(c)] for every [c] in order, so a
   non-finite factor raises after the lanes before it were scaled. *)
let scale_clusters t i factors =
  check_row t i;
  if Array.length factors <> t.nc then
    invalid_arg "Weights.scale_clusters: factor count must equal nc";
  for c = 0 to t.nc - 1 do
    let f = Array.unsafe_get factors c in
    check_factor f;
    scale_lane t i c f
  done

(* Rewrite one row's band through [f c tt v], in flat (c-major)
   order. [f] maps 0.0 to 0.0, so the slots outside the band, which
   it never sees, keep their zeros. *)
let map_row t i f =
  check_row t i;
  let ba = t.data and nt = t.nt in
  let cs = t.cluster_sum and ts = t.time_sum and rt = t.row_total in
  let lo = t.lo.(i) and hi = t.hi.(i) in
  for c = 0 to t.nc - 1 do
    let base = ((i * t.nc) + c) * nt in
    let ci = (i * t.nc) + c and ti = i * nt in
    for tt = lo to hi do
      let k = base + tt in
      let old = Bigarray.Array1.unsafe_get ba k in
      let v = f c tt old in
      if bad_value v then reject_value ();
      let delta = v -. old in
      if delta <> 0.0 then begin
        Bigarray.Array1.unsafe_set ba k (v +. 0.0);
        Array.unsafe_set cs ci (Array.unsafe_get cs ci +. delta);
        Array.unsafe_set ts (ti + tt) (Array.unsafe_get ts (ti + tt) +. delta);
        Array.unsafe_set rt i (Array.unsafe_get rt i +. delta);
        mark_touched t i
      end
    done
  done

(* Zero every slot outside [lo..hi] in row [i] — INITTIME's shape —
   then narrow the band to its intersection with the window. Exactly
   [map_row t i (fun _ tt v -> if tt < lo || tt > hi then 0.0 else v)]:
   in-window and out-of-band elements have delta 0 and are skipped
   there too, so only the band's two out-of-window stretches are
   visited, in the same ascending order map_row would reach them. The
   zeroed slots' time sums keep their residue, inside the extent. *)
let mask_time_window t i ~lo ~hi =
  check_row t i;
  let ba = t.data and nt = t.nt in
  let ts = t.time_sum and ti = i * nt in
  let blo = t.lo.(i) and bhi = t.hi.(i) in
  let rt = ref t.row_total.(i) and changed = ref false in
  for c = 0 to t.nc - 1 do
    let base = ((i * t.nc) + c) * nt and ci = (i * t.nc) + c in
    let cs = ref t.cluster_sum.(ci) in
    (* The stretch before the window, then the one after it; with an
       inverted window they overlap, and the second visit of a slot
       finds it zero already. *)
    for stretch = 0 to 1 do
      let a = if stretch = 0 then blo else Int.max (hi + 1) blo in
      let b = if stretch = 0 then Int.min (lo - 1) bhi else bhi in
      for tt = a to b do
        let k = base + tt in
        let old = Bigarray.Array1.unsafe_get ba k in
        let delta = 0.0 -. old in
        if delta <> 0.0 then begin
          Bigarray.Array1.unsafe_set ba k 0.0;
          cs := !cs +. delta;
          Array.unsafe_set ts (ti + tt) (Array.unsafe_get ts (ti + tt) +. delta);
          rt := !rt +. delta;
          changed := true
        end
      done
    done;
    t.cluster_sum.(ci) <- !cs
  done;
  t.row_total.(i) <- !rt;
  if !changed then mark_touched t i;
  set_band t i (Int.max blo lo) (Int.min bhi hi)

(* --- marginals ------------------------------------------------------ *)

let cluster_weight t i c =
  if i < 0 || i >= t.n || c < 0 || c >= t.nc then invalid_arg "Weights: index out of range";
  t.cluster_sum.((i * t.nc) + c)

let time_weight t i tt =
  if i < 0 || i >= t.n || tt < 0 || tt >= t.nt then invalid_arg "Weights: index out of range";
  t.time_sum.((i * t.nt) + tt)

let row_total t i =
  check_row t i;
  t.row_total.(i)

(* Clear row [i]'s time sums over its extent and shrink the extent to
   the band: the start of every marginal rebuild. The sums of the
   band's slots are then accumulated from zero. *)
let reset_time_sums t i =
  let ts = t.time_sum and ti = i * t.nt in
  for tt = t.tlo.(i) to t.thi.(i) do
    Array.unsafe_set ts (ti + tt) 0.0
  done;
  t.tlo.(i) <- t.lo.(i);
  t.thi.(i) <- t.hi.(i)

(* --- normalization -------------------------------------------------- *)

(* The loops below make no calls, so their running sums stay in
   registers. *)

(* Sum of row [i]'s band in flat (c-major) order: the sum of the whole
   row, as the slots outside the band are zeros. *)
let band_sum t i =
  let ba = t.data and nt = t.nt and lo = t.lo.(i) and hi = t.hi.(i) in
  let total = ref 0.0 in
  for c = 0 to t.nc - 1 do
    let lane = ((i * t.nc) + c) * nt in
    for k = lane + lo to lane + hi do
      total := !total +. Bigarray.Array1.unsafe_get ba k
    done
  done;
  !total

(* Divide row [i]'s band by [total] in one sweep that also rebuilds the
   marginal caches from the new entries: each cluster sum left to
   right, the band's time sums (cleared beforehand) in ascending
   cluster order, and the row total as the sum of cluster sums — the
   order the reference's [recompute_row] uses, so the caches come out
   bit-identical to a divide followed by that rebuild. Returns whether
   an entry changed. *)
let divide_band t i total =
  let ba = t.data and nt = t.nt and nc = t.nc and lo = t.lo.(i) and hi = t.hi.(i) in
  let cs = t.cluster_sum and ts = t.time_sum and ti = i * nt in
  let changed = ref false and row = ref 0.0 in
  for c = 0 to nc - 1 do
    let lane = ((i * nc) + c) * nt in
    let s = ref 0.0 in
    for tt = lo to hi do
      let k = lane + tt in
      let old = Bigarray.Array1.unsafe_get ba k in
      let v = old /. total in
      if v <> old then begin
        changed := true;
        Bigarray.Array1.unsafe_set ba k v
      end;
      s := !s +. v;
      Array.unsafe_set ts (ti + tt) (Array.unsafe_get ts (ti + tt) +. v)
    done;
    Array.unsafe_set cs ((i * nc) + c) !s;
    row := !row +. !s
  done;
  t.row_total.(i) <- !row;
  !changed

(* [dst] <- [keep * dst + (1 - keep) * src] over [dst]'s band (already
   widened to the union of both bands), rebuilding [dst]'s marginals
   in [divide_band]'s order. *)
let blend_band t ~dst ~src ~keep =
  let ba = t.data and nt = t.nt and nc = t.nc and lo = t.lo.(dst) and hi = t.hi.(dst) in
  let cs = t.cluster_sum and ts = t.time_sum and ti = dst * nt in
  let row = ref 0.0 in
  for c = 0 to nc - 1 do
    let bd = ((dst * nc) + c) * nt and bs = ((src * nc) + c) * nt in
    let s = ref 0.0 in
    for tt = lo to hi do
      let v =
        (keep *. Bigarray.Array1.unsafe_get ba (bd + tt))
        +. ((1.0 -. keep) *. Bigarray.Array1.unsafe_get ba (bs + tt))
      in
      Bigarray.Array1.unsafe_set ba (bd + tt) v;
      s := !s +. v;
      Array.unsafe_set ts (ti + tt) (Array.unsafe_get ts (ti + tt) +. v)
    done;
    Array.unsafe_set cs ((dst * nc) + c) !s;
    row := !row +. !s
  done;
  t.row_total.(dst) <- !row

(* Reset row [i] to uniform over every slot, restoring the full band;
   returns whether an entry changed. *)
let fill_uniform t i =
  let len = t.nc * t.nt in
  let u = 1.0 /. float_of_int len and changed = ref false in
  for k = i * len to ((i + 1) * len) - 1 do
    if Bigarray.Array1.unsafe_get t.data k <> u then begin
      changed := true;
      Bigarray.Array1.unsafe_set t.data k u
    end
  done;
  set_band t i 0 (t.nt - 1);
  !changed

(* Total from the entries themselves, not the incrementally maintained
   caches: floating-point drift can leave a cached total tiny-positive
   while the row has decayed to all zeros, and dividing by that would
   produce a row that still sums to ~0 (or worse, NaN). The fused
   divide is the kernel half of the driver's "apply then renormalize"
   cycle; marginals are rebuilt exactly with it. A row without a
   positive finite total is reset to uniform instead, and the divide
   by 1.0 (exact) then only rebuilds its marginals. *)
let normalize t i =
  check_row t i;
  let total = band_sum t i in
  let reset = not (total > 0.0 && Float.is_finite total) in
  let reset_changed = reset && fill_uniform t i in
  reset_time_sums t i;
  let divided = divide_band t i (if reset then 1.0 else total) in
  if reset_changed || divided then mark_touched t i

let normalize_all t =
  for i = 0 to t.n - 1 do
    normalize t i
  done

(* The driver's fused renormalize: only rows written since the last
   [clear_touched] can have drifted off sum 1, so only they are swept.
   Rows a pass never wrote keep their exact bits ([normalize_all]
   would re-divide every row by a total within one ulp of 1.0, churning
   the low bits of untouched rows for nothing). *)
let normalize_touched t =
  if t.n_dirty > 0 then
    for i = 0 to t.n - 1 do
      if Bytes.unsafe_get t.dirty i <> '\000' then normalize t i
    done

(* --- preferences ---------------------------------------------------- *)

(* First index of the largest of [a.(base + k)] for [k] in
   [0, count): a later value wins only by more than 1e-12. *)
let argmax a base count =
  let best = ref 0 and best_v = ref (Array.unsafe_get a base) in
  for k = 1 to count - 1 do
    let v = Array.unsafe_get a (base + k) in
    if v > !best_v +. 1e-12 then begin
      best := k;
      best_v := v
    end
  done;
  !best

let preferred_cluster t i =
  check_row t i;
  argmax t.cluster_sum (i * t.nc) t.nc

let preferred_time t i =
  check_row t i;
  argmax t.time_sum (i * t.nt) t.nt

let runnerup_cluster t i =
  if t.nc < 2 then None
  else begin
    let pref = preferred_cluster t i in
    let best = ref (if pref = 0 then 1 else 0) in
    for c = 0 to t.nc - 1 do
      if c <> pref && cluster_weight t i c > cluster_weight t i !best +. 1e-12 then best := c
    done;
    Some !best
  end

(* A fully converged row has no runner-up mass, which used to make
   [confidence] return [infinity] — a value that poisons any telemetry
   mean/percentile it is averaged into (inf + x = inf, inf - inf = nan).
   It is now clamped to this documented finite sentinel; every caller
   comparing against a threshold behaves the same, and "no runner-up"
   is exactly [confidence = confidence_sentinel]. *)
let confidence_sentinel = 1e9

let confidence t i =
  match runnerup_cluster t i with
  | None -> confidence_sentinel
  | Some r ->
    let top = cluster_weight t i (preferred_cluster t i) in
    let second = cluster_weight t i r in
    if second <= 0.0 then confidence_sentinel
    else Float.min (top /. second) confidence_sentinel

(* Outside the union of the two bands both rows are zero and so is the
   blend, so only the union is swept, and it becomes [dst]'s band. The
   same sweep rebuilds [dst]'s marginal caches. *)
let blend t ~dst ~src ~keep =
  if keep < 0.0 || keep > 1.0 then invalid_arg "Weights.blend: keep must be in [0,1]";
  check_row t dst;
  check_row t src;
  if dst <> src then begin
    set_band t dst (Int.min t.lo.(dst) t.lo.(src)) (Int.max t.hi.(dst) t.hi.(src));
    reset_time_sums t dst;
    mark_touched t dst;
    blend_band t ~dst ~src ~keep
  end

let preferred_clusters t = Array.init t.n (fun i -> preferred_cluster t i)

(* --- copy / restore ------------------------------------------------- *)

let copy t =
  let data = create_ba (Bigarray.Array1.dim t.data) in
  Bigarray.Array1.blit t.data data;
  {
    t with
    data;
    cluster_sum = Array.copy t.cluster_sum;
    time_sum = Array.copy t.time_sum;
    row_total = Array.copy t.row_total;
    lo = Array.copy t.lo;
    hi = Array.copy t.hi;
    tlo = Array.copy t.tlo;
    thi = Array.copy t.thi;
    dirty = Bytes.copy t.dirty;
  }

let check_compatible ~ctx src dst =
  if src.n <> dst.n || src.nc <> dst.nc || src.nt <> dst.nt then
    invalid_arg (ctx ^ ": dimension mismatch")

let blit ~src ~dst =
  check_compatible ~ctx:"Weights.blit" src dst;
  Bigarray.Array1.blit src.data dst.data;
  Array.blit src.cluster_sum 0 dst.cluster_sum 0 (Array.length src.cluster_sum);
  Array.blit src.time_sum 0 dst.time_sum 0 (Array.length src.time_sum);
  Array.blit src.row_total 0 dst.row_total 0 (Array.length src.row_total);
  List.iter
    (fun (a, b) -> Array.blit a 0 b 0 src.n)
    [ (src.lo, dst.lo); (src.hi, dst.hi); (src.tlo, dst.tlo); (src.thi, dst.thi) ];
  Bytes.blit src.dirty 0 dst.dirty 0 (Bytes.length src.dirty);
  dst.n_dirty <- src.n_dirty

(* Copy only the listed rows — entries, cached marginals, band and
   extent — from [src] into [dst]. With [rows = touched_rows w] this
   is the O(dirty) half of the driver's quarantine protocol: rollback
   restores exactly the rows a misbehaving pass wrote, and a
   successful pass refreshes only those rows in its snapshot. Outside
   the union of the two bands both rows hold zeros, and outside the
   union of the two extents both hold zero time sums, so only those
   unions are copied. Leaves [dst]'s dirty flags alone. *)
let sync_rows ~rows ~src ~dst =
  check_compatible ~ctx:"Weights.sync_rows" src dst;
  let nc = src.nc and nt = src.nt in
  let a = src.data and b = dst.data in
  List.iter
    (fun i ->
      check_row src i;
      let lo = Int.min src.lo.(i) dst.lo.(i) and hi = Int.max src.hi.(i) dst.hi.(i) in
      let row = i * nc * nt in
      (* The span from the first lane's [lo] to the last lane's [hi] is
         contiguous, and the gaps between lanes lie outside both bands.
         When the band fills at least half of that span, one block
         copy of it beats copying lane by lane. *)
      let span = ((nc - 1) * nt) + hi - lo + 1 in
      if lo <= hi && 2 * nc * (hi - lo + 1) >= span then
        Bigarray.Array1.blit
          (Bigarray.Array1.sub a (row + lo) span)
          (Bigarray.Array1.sub b (row + lo) span)
      else
        for c = 0 to nc - 1 do
          let lane = row + (c * nt) in
          for k = lane + lo to lane + hi do
            Bigarray.Array1.unsafe_set b k (Bigarray.Array1.unsafe_get a k)
          done
        done;
      let tlo = Int.min src.tlo.(i) dst.tlo.(i) and thi = Int.max src.thi.(i) dst.thi.(i) in
      if tlo <= thi then
        Array.blit src.time_sum ((i * nt) + tlo) dst.time_sum ((i * nt) + tlo)
          (thi - tlo + 1);
      Array.blit src.cluster_sum (i * nc) dst.cluster_sum (i * nc) nc;
      dst.row_total.(i) <- src.row_total.(i);
      dst.lo.(i) <- src.lo.(i);
      dst.hi.(i) <- src.hi.(i);
      dst.tlo.(i) <- src.tlo.(i);
      dst.thi.(i) <- src.thi.(i))
    rows

(* --- validation ----------------------------------------------------- *)

(* The sweep sums in flat (c-major) order and only notes whether some
   entry is non-finite or below -1e-9; the loop makes no calls, so the
   running sum stays in a register. Only a bad row is swept again, to
   name its first bad entry. *)
let validate_row t i err =
  let ba = t.data and lo = t.lo.(i) and hi = t.hi.(i) in
  let total = ref 0.0 and ok = ref true in
  for c = 0 to t.nc - 1 do
    let lane = ((i * t.nc) + c) * t.nt in
    for k = lane + lo to lane + hi do
      let v = Bigarray.Array1.unsafe_get ba k in
      if v >= -.1e-9 && v <= Float.max_float then total := !total +. v else ok := false
    done
  done;
  if not !ok then begin
    let first_bad = ref None and k = ref 0 in
    let row = i * t.nc * t.nt in
    while !first_bad = None do
      let v = Bigarray.Array1.unsafe_get ba (row + !k) in
      if not (v >= -.1e-9 && v <= Float.max_float) then first_bad := Some v;
      incr k
    done;
    let v = Option.get !first_bad in
    err :=
      Some
        (if Float.is_finite v then Printf.sprintf "row %d has negative weight %g" i v
         else Printf.sprintf "row %d has non-finite weight %g" i v)
  end
  else if Float.abs (!total -. 1.0) > 1e-6 then
    err := Some (Printf.sprintf "row %d sums to %g, expected 1" i !total)

let validate t =
  (* Single sweep over the raw entries; cheap enough to run after every
     pass (quarantine gate), unlike the triple-pass [check_invariants]. *)
  let err = ref None in
  let i = ref 0 in
  while !err = None && !i < t.n do
    validate_row t !i err;
    incr i
  done;
  match !err with None -> Ok () | Some e -> Error e

(* Quarantine-gate variant: rows untouched since [clear_touched] were
   valid when the previous gate passed and have not changed since, so
   only dirty rows need sweeping. *)
let validate_touched t =
  let err = ref None in
  let i = ref 0 in
  while !err = None && !i < t.n do
    if Bytes.unsafe_get t.dirty !i <> '\000' then validate_row t !i err;
    incr i
  done;
  match !err with None -> Ok () | Some e -> Error e

let check_invariants t =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  for i = 0 to t.n - 1 do
    let lo = t.lo.(i) and hi = t.hi.(i) and tlo = t.tlo.(i) and thi = t.thi.(i) in
    let in_band tt = tt >= lo && tt <= hi and in_extent tt = tt >= tlo && tt <= thi in
    if not ((lo = t.nt && hi = -1) || (0 <= lo && lo <= hi && hi < t.nt)) then
      fail "row %d has malformed band [%d, %d]" i lo hi;
    if lo <= hi && not (tlo <= lo && hi <= thi) then
      fail "row %d: time extent [%d, %d] does not contain band [%d, %d]" i tlo thi lo hi;
    let total = ref 0.0 in
    for c = 0 to t.nc - 1 do
      for tt = 0 to t.nt - 1 do
        let v = Bigarray.Array1.unsafe_get t.data (idx t i c tt) in
        if v < -.1e-9 || v > 1.0 +. 1e-9 then fail "W(%d,%d,%d)=%g out of [0,1]" i c tt v;
        if v <> 0.0 && not (in_band tt) then
          fail "W(%d,%d,%d)=%g outside band [%d, %d]" i c tt v lo hi;
        total := !total +. v
      done
    done;
    if Float.abs (!total -. 1.0) > 1e-6 then fail "row %d sums to %g, expected 1" i !total;
    for c = 0 to t.nc - 1 do
      let s = ref 0.0 in
      for tt = 0 to t.nt - 1 do
        s := !s +. Bigarray.Array1.unsafe_get t.data (idx t i c tt)
      done;
      if Float.abs (!s -. cluster_weight t i c) > 1e-6 then
        fail "stale cluster sum at (%d,%d)" i c
    done;
    for tt = 0 to t.nt - 1 do
      let s = ref 0.0 in
      for c = 0 to t.nc - 1 do
        s := !s +. Bigarray.Array1.unsafe_get t.data (idx t i c tt)
      done;
      if Float.abs (!s -. time_weight t i tt) > 1e-6 then fail "stale time sum at (%d,%d)" i tt;
      if time_weight t i tt <> 0.0 && not (in_extent tt) then
        fail "time sum at (%d,%d) = %g outside extent [%d, %d]" i tt (time_weight t i tt)
          tlo thi
    done;
    if Float.abs (!total -. row_total t i) > 1e-6 then
      fail "stale row total at %d (%g cached vs %g)" i (row_total t i) !total
  done;
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

let pp_cluster_map fmt t =
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "instr";
  for c = 0 to t.nc - 1 do
    Format.fprintf fmt " c%-2d" c
  done;
  Format.fprintf fmt "@,";
  for i = 0 to t.n - 1 do
    Format.fprintf fmt "%5d" i;
    let top = ref 0.0 in
    for c = 0 to t.nc - 1 do
      top := max !top (cluster_weight t i c)
    done;
    for c = 0 to t.nc - 1 do
      let v = if !top <= 0.0 then 0.0 else cluster_weight t i c /. !top in
      let g = glyphs.(min 9 (int_of_float (v *. 9.0))) in
      Format.fprintf fmt "  %c " g
    done;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
