(** The convergent-scheduling preference matrix [W(i, c, t)] (paper
    Sec. 3), stored as one contiguous instr-major float64 block:

    {v index(i, c, t) = ((i * nc) + c) * nt + t v}

    For every instruction [i], cluster [c] and time slot [t], [W(i,c,t)]
    is the scheduler's current preference for executing [i] on [c] at
    [t]. The paper's invariants are maintained after [normalize]:

    - [0 <= W(i,c,t) <= 1]
    - for each [i], the entries sum to 1.

    Marginal sums over time (per cluster), over clusters (per time) and
    over the whole row are cached incrementally so preferred slots and
    confidences are O(clusters + slots), as the paper requires.

    {b Banded rows.} Every row carries a band [\[lo, hi\]] of time
    slots (see {!band}): each entry of the row at a slot outside it is
    zero. A fresh row's band is every slot. {!mask_time_window} narrows
    it (INITTIME confines each row to its [\[est, lst\]] window),
    {!blend} widens the destination's band to the union of both rows'
    bands, a nonzero {!set} outside the band widens it to reach the
    slot, and {!normalize}'s uniform reset restores the full band.
    Every row kernel runs over the band only, so a pass costs time in
    proportion to the rows' live windows, not to [nt]. Storage stays
    one dense block, so {!get} reads any slot.

    Every write also marks its row {e touched}, so renormalization, the
    driver's quarantine gate and snapshot maintenance run in time
    proportional to the rows a pass actually wrote (see the
    [touched_*], [normalize_touched], [validate_touched] and
    [sync_rows] group below).

    The block is a float64 [Bigarray] swept by fused, unchecked row
    kernels. Each kernel performs the same floating-point operations in
    the same order as the per-element {!set} chain it stands for (the
    entries it skips outside the band would add zero deltas and zero
    terms), so a fused sweep and the equivalent sequence of {!set}
    calls leave bit-identical entries and marginals. *)

type t

val create : n:int -> nc:int -> nt:int -> t
(** Uniform distribution [1 / (nc * nt)] everywhere. *)

val n : t -> int
val nc : t -> int
val nt : t -> int

(** {1 Element access} *)

val get : t -> int -> int -> int -> float
(** [get w i c t]. *)

val set : t -> int -> int -> int -> float -> unit
(** Store a finite, non-negative weight; anything else raises
    [Invalid_argument]. A value equal to the current one stores
    nothing and leaves the row untouched, and a zero is always stored
    as [+0.0]. *)

val add : t -> int -> int -> int -> float -> unit
val scale : t -> int -> int -> int -> float -> unit

val band : t -> int -> int * int
(** [band w i] is row [i]'s band [(lo, hi)]: every entry of the row at
    a slot outside [lo..hi] is zero. An empty band (a row whose mass
    was masked away) is [(nt, -1)]. *)

(** {1 Fused row kernels}

    Each sweeps one row's band, lane by lane in ascending slot order;
    all of them reject a produced value that is non-finite or negative
    exactly as {!set} does, and leave a row's touched flag unset when
    nothing actually changed (e.g. scaling by 1.0). The scaling
    kernels reject a non-finite factor before they write, even on a
    row whose band is empty. *)

val scale_cluster : t -> int -> int -> float -> unit
(** Scale all time slots of one (instruction, cluster): the band's
    part of one contiguous lane of [nt] doubles. *)

val scale_time : t -> int -> int -> float -> unit
(** Scale all clusters of one (instruction, slot) — an [nt]-strided
    walk, skipped when the slot lies outside the band. *)

val scale_clusters : t -> int -> float array -> unit
(** [scale_clusters w i factors] multiplies every entry [W(i,c,t)] by
    [factors.(c)] in one row sweep; [factors] must have length [nc].
    Equivalent to [scale_cluster w i c factors.(c)] for each [c] in
    order — the shape the LOAD / COMM / FEASIBLE / PLACEPROP kernels
    reduce to. A non-finite [factors.(c)] raises after lanes [0..c-1]
    were scaled, as that [scale_cluster] chain would. *)

val map_row : t -> int -> (int -> int -> float -> float) -> unit
(** [map_row w i f] rewrites row [i] as [W(i,c,t) <- f c t W(i,c,t)],
    visiting the band's entries in flat (cluster-major) order. [f] is
    called only on slots inside the band, and must map [0.0] to [0.0]:
    the zeros outside the band, which it never sees, stay zero, so the
    result equals applying [f] to every entry. (NOISE, which perturbs
    only positive entries, meets this; its RNG draws happen in the
    same order as over the full row.) *)

val mask_time_window : t -> int -> lo:int -> hi:int -> unit
(** [mask_time_window w i ~lo ~hi] zeroes every slot of row [i]
    outside the inclusive window [lo..hi] — INITTIME's shape — and
    narrows the band to its intersection with the window (empty when
    the window is). Equivalent to
    [map_row w i (fun _ t v -> if t < lo || t > hi then 0.0 else v)]
    without the per-element closure call. The zeroed slots' time
    marginals keep the rounding residue of the subtraction, exactly as
    that [map_row] would leave them, until the row's marginals are
    next rebuilt ({!normalize}, {!blend}). *)

(** {1 Cached marginals} *)

val cluster_weight : t -> int -> int -> float
(** Marginal [sum_t W(i,c,t)]; O(1) from the cache. *)

val time_weight : t -> int -> int -> float
(** Marginal [sum_c W(i,c,t)]; O(1) from the cache. *)

val row_total : t -> int -> float
(** Cached [sum_{c,t} W(i,c,t)]; O(1). *)

val normalize : t -> int -> unit
(** Rescale instruction [i]'s entries to sum to 1 and rebuild its
    marginal caches exactly; a row that has been squashed to all zeros
    is reset to uniform, which restores the full band. *)

val normalize_all : t -> unit

val normalize_touched : t -> unit
(** {!normalize} only the rows written since the last
    {!clear_touched} — the driver's fused per-pass renormalize. Rows a
    pass never wrote keep their exact bits. *)

(** {1 Dirty-row tracking}

    A row is {e touched} once any write changes one of its entries;
    the flag set accumulates until {!clear_touched}. The driver clears
    at the start of each pass, so after the pass the touched set is
    exactly the rows that pass wrote. *)

val is_touched : t -> int -> bool
val touched_count : t -> int

val touched_rows : t -> int list
(** Ascending row ids. *)

val clear_touched : t -> unit

val sync_rows : rows:int list -> src:t -> dst:t -> unit
(** Copy the listed rows — entries, cached marginals and bands — from
    [src] into [dst] (same dimensions required). Only the union of a
    row's [src] and [dst] bands is copied: outside it both rows hold
    zeros. With
    [rows = touched_rows w] this is the O(touched) half of the
    quarantine protocol: rollback restores exactly the rows a
    misbehaving pass wrote ([src] = snapshot, [dst] = w), and a clean
    pass refreshes only those rows in its snapshot ([src] = w,
    [dst] = snapshot). [dst]'s touched flags are left alone. *)

(** {1 Preferences and confidence} *)

val preferred_cluster : t -> int -> int
(** Cluster maximizing the time-marginal; smallest id wins ties. *)

val preferred_time : t -> int -> int

val runnerup_cluster : t -> int -> int option
(** Second-best cluster; [None] on single-cluster machines. *)

val confidence_sentinel : float
(** [1e9]. Finite stand-in for "no competition": returned (and used as
    a clamp) by {!confidence} where the ratio used to be [infinity],
    so telemetry means/percentiles over confidences never propagate
    [inf]/[nan]. *)

val confidence : t -> int -> float
(** Ratio of the top two cluster marginals (paper Sec. 3), clamped to
    [confidence_sentinel]; exactly [confidence_sentinel] when there is
    no runner-up or its weight is zero. Always finite. *)

val blend : t -> dst:int -> src:int -> keep:float -> unit
(** [blend w ~dst ~src ~keep] sets [W(dst) <- keep * W(dst) +
    (1 - keep) * W(src)] pointwise — the paper's linear combination with
    [n = 2, i1 = j]. [keep] must be in [\[0, 1\]]. Sweeps the union of
    the two rows' bands, which becomes [dst]'s band. *)

val preferred_clusters : t -> int array
(** Snapshot of every instruction's preferred cluster. *)

(** {1 Copy / restore} *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] in place with [src]'s contents (entries, cached
    marginals and touched flags). Dimensions must match. *)

(** {1 Validation} *)

val validate : t -> (unit, string) result
(** Fast single-sweep check over every row: every entry finite and
    non-negative, every row summing to 1 (i.e. the matrix is
    post-normalization sane). Returns the first problem found. See
    {!check_invariants} for the exhaustive variant that also audits
    the marginal caches. *)

val validate_touched : t -> (unit, string) result
(** {!validate} restricted to rows written since {!clear_touched} —
    the pass-quarantine gate. Sound because untouched rows passed the
    previous gate and have not changed since. *)

val check_invariants : t -> (unit, string) result
(** Verifies range, row sums (post-normalization), and consistency of
    all three marginal caches against freshly recomputed sums; that
    every entry outside its row's band is zero; and that every time
    marginal outside the row's time-marginal extent (the band plus the
    slots {!mask_time_window} zeroed since the last rebuild) is zero.
    Used by tests and assertions. *)

val pp_cluster_map : Format.formatter -> t -> unit
(** ASCII rendering of the cluster-preference map in the style of the
    paper's Fig. 4(b-g): one row per instruction, one column per
    cluster, darker glyph = stronger preference. *)
