(* Load generator: an open loop that sends on a fixed schedule and a
   closed loop that sends back to back, both over at most [conns]
   concurrent connections.

   Open-loop requests are timed from the moment they were due, not from
   the moment they were sent. A stall anywhere — in the generator, in
   the network, in the server — therefore shows up in the latency of
   every request queued behind it, instead of silently lowering the
   offered rate (coordinated omission). How late the generator ran is
   reported separately as [sent - due].

   The clock is a parameter so the accounting can be tested on a
   virtual clock without sleeping (see {!self_test}). *)

type clock = { now : unit -> float; sleep_until : float -> unit }

let real_clock =
  { now = Unix.gettimeofday;
    sleep_until =
      (fun t ->
        let d = t -. Unix.gettimeofday () in
        if d > 0.0 then Thread.delay d) }

type sample = {
  index : int;
  due : float;  (** when the request should have been sent *)
  sent : float;  (** when it was actually sent *)
  finished : float;  (** when its reply (or failure) was in hand *)
  ok : bool;
}

let latency s = s.finished -. s.due
let late s = s.sent -. s.due

(* Run [worker] on [conns] threads (inline when there is only one, so a
   virtual clock needs no synchronisation) and wait for all of them. *)
let run_workers ~conns worker =
  if conns <= 1 then worker ()
  else List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()))

let collect results =
  Array.to_list results |> List.filter_map Fun.id

(* [n] requests, the [i]th due at [start + i / rate]. [send k] performs
   request [k = first + i] and says whether it succeeded. *)
let open_loop ?(clock = real_clock) ?(first = 0) ~conns ~rate ~n send =
  let start = clock.now () +. 0.005 in
  let next = Atomic.make 0 in
  let results = Array.make n None in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = start +. (float_of_int i /. rate) in
        clock.sleep_until due;
        let sent = clock.now () in
        let ok = send (first + i) in
        results.(i) <- Some { index = first + i; due; sent; finished = clock.now (); ok };
        loop ()
      end
    in
    loop ()
  in
  run_workers ~conns worker;
  collect results

(* Back-to-back requests on [conns] connections until [duration]
   seconds have passed; a request is due when its connection is free.
   Indices count up from [first]. Returns the samples and the measured
   phase length (last reply minus start). *)
let closed_loop ?(clock = real_clock) ~conns ~duration ?(first = 0) ?(max_n = 100_000)
    send =
  let start = clock.now () in
  let stop = start +. duration in
  let next = Atomic.make 0 in
  let results = Array.make max_n None in
  let worker () =
    let rec loop () =
      if clock.now () < stop then begin
        let k = Atomic.fetch_and_add next 1 in
        if k < max_n then begin
          let sent = clock.now () in
          let ok = send (first + k) in
          results.(k) <-
            Some { index = first + k; due = sent; sent; finished = clock.now (); ok };
          loop ()
        end
      end
    in
    loop ()
  in
  run_workers ~conns worker;
  let samples = collect results in
  let last = List.fold_left (fun acc s -> Float.max acc s.finished) start samples in
  (samples, last -. start)

(* ---- self-test ------------------------------------------------------ *)

(* Checks on a virtual clock that open-loop accounting charges a stall
   to the requests queued behind it:

   - the generator oversleeps by 300 ms before request 5 (a generator
     stall), so requests 5.. are sent late and their latency includes
     the lateness;
   - request 20 takes 200 ms to serve (a server stall) on the single
     connection, so the requests due during it are sent late too.

   Timing from the send instead of the due time would report every
   request as 1 ms. Returns the failed expectations. *)
let self_test () =
  let t = ref 0.0 in
  let overslept = ref false in
  let clock =
    { now = (fun () -> !t);
      sleep_until =
        (fun due ->
          (* the first sleep that ends past 50 ms overshoots by 300 ms *)
          if (not !overslept) && due >= 0.05 then begin
            overslept := true;
            t := Float.max !t due +. 0.3
          end
          else t := Float.max !t due) }
  in
  let service i = if i = 20 then 0.2 else 0.001 in
  let samples =
    open_loop ~clock ~conns:1 ~rate:100.0 ~n:60 (fun i ->
        t := !t +. service i;
        true)
  in
  let by_index = Array.of_list (List.sort (fun a b -> compare a.index b.index) samples) in
  let problems = ref [] in
  let expect cond msg = if not cond then problems := msg :: !problems in
  expect (Array.length by_index = 60) "open loop lost samples";
  Array.iter
    (fun s ->
      expect (latency s >= late s +. 0.001 -. 1e-9)
        (Printf.sprintf "request %d: latency %.4f below lateness %.4f + service" s.index
           (latency s) (late s)))
    by_index;
  (* request 5 is due at 55 ms; the generator wakes at 355 ms *)
  expect (late by_index.(5) >= 0.3 -. 1e-9) "generator stall not charged to request 5";
  (* requests behind it catch up only after 300 ms of 10 ms slots *)
  expect (late by_index.(6) > 0.25) "generator stall not charged to request 6";
  (* the server stall at request 20 delays request 21 *)
  expect (late by_index.(21) > late by_index.(20) +. 0.15)
    "server stall not charged to request 21";
  let p90_late =
    Cs_util.Stats.percentile 90.0 (Array.to_list (Array.map late by_index))
  in
  expect (p90_late > 0.1) "late p90 does not show the stalls";
  (* the naive send-to-reply time hides the stall entirely *)
  expect (by_index.(6).finished -. by_index.(6).sent < 0.01)
    "virtual clock miscounted service time";
  let closed, span =
    closed_loop ~clock ~conns:1 ~duration:0.095 ~first:1000 (fun _ ->
        t := !t +. 0.01;
        true)
  in
  expect (List.length closed = 10)
    (Printf.sprintf "closed loop sent %d requests in 95 ms of 10 ms jobs"
       (List.length closed));
  expect (Float.abs (span -. 0.1) < 1e-6) "closed loop mismeasured its phase";
  expect (List.for_all (fun s -> s.index >= 1000) closed) "closed loop ignored ~first";
  List.rev !problems
