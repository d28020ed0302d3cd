(* Host speed, for scaling CPU time.

   On a shared host a CPU second is not a fixed amount of work: other
   guests on the same cores change this one's speed by up to 1.8 times,
   in spells that last minutes, and the kernel charges the slower
   seconds to the process all the same. So a fixed reference kernel,
   code that never changes with the program, is timed before every
   compile job on the same thread, and the compile workloads' CPU times
   are scaled by [nominal_s] over its median: they are expressed at the
   speed at which one call takes [nominal_s]. The kernel streams a 16 MB
   float array, about the size of a compile-deep weight matrix, as the
   weight passes do: a kernel over a small cache-resident array sped up
   twice as much as the jobs did when the host did.

   The serve workloads keep raw CPU time: there the kernel could only run
   while the fleet is idle, and the fleet's cost moves far less with the
   host's speed than a compile job's does. *)

(* About one call's CPU time on the 2.1 GHz Xeon guest the benchmark was
   tuned on, in its slower spells. Any fixed value would do; it only sets
   the scale. *)
let nominal_s = 0.015

let data = lazy (Float.Array.make (2 * 1024 * 1024) 1.0)

(* CPU seconds one call of the kernel takes. *)
let kernel () =
  let a = Lazy.force data in
  let c0 = Inproc.cpu_s () in
  let s = ref 0.0 in
  for _ = 1 to 4 do
    for i = 0 to Float.Array.length a - 1 do
      let x = (Float.Array.unsafe_get a i *. 0.5) +. 0.5 in
      Float.Array.unsafe_set a i x;
      s := !s +. x
    done
  done;
  ignore (Sys.opaque_identity !s);
  Inproc.cpu_s () -. c0

type t = { mutable samples : float list }

let create () = { samples = [] }
let measure t = t.samples <- kernel () :: t.samples
let kernel_ms t = 1000.0 *. Cs_util.Stats.median t.samples

(* Multiply a CPU time of this run by [scale t] to get reference-speed
   seconds. *)
let scale t = nominal_s /. Cs_util.Stats.median t.samples
