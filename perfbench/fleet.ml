(* A serving fleet as child processes: two [csched serve --workers 1]
   shards and one [csched gateway] in front of them, all on loopback
   ephemeral ports.

   Every child is registered in [live] as soon as it exists, so the
   emergency path (an exception, a signal, the watchdog) can always
   SIGTERM and reap it: repeated runs leave no orphans behind. *)

type child = { name : string; pid : int; addr : Cs_svc.Transport.addr; out : Unix.file_descr }

type t = { gateway : child; shards : child list }

let live : (int * Unix.file_descr) list ref = ref []
let live_lock = Mutex.create ()

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) f

let adopt pid fd = with_live (fun () -> live := (pid, fd) :: !live)

(* SIGTERM, then wait up to [grace] seconds for a clean exit before
   SIGKILL. Always reaps. *)
let reap ?(grace = 5.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let release pid =
  let fds =
    with_live (fun () ->
        let mine, rest = List.partition (fun (p, _) -> p = pid) !live in
        live := rest;
        mine)
  in
  List.iter (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

let stop_child c =
  reap c.pid;
  release c.pid

(* Stop every child still registered; used on every exit path. *)
let stop_all () =
  let pids = with_live (fun () -> List.map fst !live) in
  List.iter
    (fun pid ->
      reap ~grace:2.0 pid;
      release pid)
    pids

(* Read one line from [fd] within [timeout] seconds. *)
let read_line ~timeout fd =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then Error "timed out"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> Error "timed out"
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> Error "exited before listening"
        | _ ->
          if Bytes.get byte 0 = '\n' then Ok (Buffer.contents buf)
          else begin
            Buffer.add_bytes buf byte;
            go ()
          end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* "csched serve: listening on 127.0.0.1:41213 (1 workers, queue 16)" *)
let listening_addr line =
  let key = "listening on " in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length line then None
    else if String.sub line i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> Error (Printf.sprintf "unexpected banner %S" line)
  | Some start ->
    let stop = try String.index_from line start ' ' with Not_found -> String.length line in
    Cs_svc.Transport.parse (String.sub line start (stop - start))

let spawn ~exe ~name args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null wr Unix.stderr)
  in
  adopt pid rd;
  match Result.bind (read_line ~timeout:20.0 rd) listening_addr with
  | Ok addr -> { name; pid; addr; out = rd }
  | Error e ->
    reap pid;
    release pid;
    failwith (Printf.sprintf "%s did not start: %s" name e)

(* Probe until the child answers with a pong or [timeout] passes. *)
let wait_ready ?(timeout = 20.0) c =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Cs_svc.Client.fetch_stats ~addr:c.addr () with
    | Ok _ -> ()
    | Error e ->
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "%s never answered: %s" c.name e)
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

let start ~exe =
  let loopback = "127.0.0.1:0" in
  let shards =
    List.init 2 (fun i ->
        spawn ~exe ~name:(Printf.sprintf "shard%d" i)
          [ "serve"; "--workers"; "1"; "--listen"; loopback ])
  in
  let shard_list = String.concat "," (List.map (fun c -> Cs_svc.Transport.to_string c.addr) shards) in
  let gateway =
    spawn ~exe ~name:"gateway" [ "gateway"; "--shards"; shard_list; "--listen"; loopback ]
  in
  List.iter wait_ready shards;
  wait_ready gateway;
  { gateway; shards }

(* Gateway first, so it never sees its shards vanish under it. *)
let stop t = List.iter stop_child (t.gateway :: t.shards)

(* Peak resident set (VmHWM) of a live child, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun l ->
           if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
             Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           else None)
    |> Option.value ~default:0.0

(* User plus system CPU seconds of a live child, all its threads
   included (/proc/<pid>/stat fields 14 and 15, in 1/100 s). The kernel
   does not charge a process for time the hypervisor gave to other
   guests (steal), so on a shared host this is far steadier than wall
   time. *)
let cpu_s pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | stat -> (
    let after_name = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
    match String.split_on_char ' ' after_name with
    | _state :: rest -> (
      match List.filteri (fun i _ -> i = 10 || i = 11) rest with
      | [ utime; stime ] -> (float_of_string utime +. float_of_string stime) /. 100.0
      | _ -> 0.0)
    | [] -> 0.0)

let fleet_cpu_s t = List.fold_left (fun acc c -> acc +. cpu_s c.pid) 0.0 (t.gateway :: t.shards)

let peak_rss_mb t = List.fold_left (fun acc c -> acc +. vm_hwm_mb c.pid) 0.0 (t.gateway :: t.shards)

let shard_metrics t =
  List.map
    (fun c ->
      match Cs_svc.Client.fetch_metrics ~addr:c.addr () with
      | Ok (Cs_svc.Proto.Snapshot s) -> s
      | Ok (Cs_svc.Proto.Prom_text _) -> failwith "shard answered metrics as text"
      | Error e -> failwith (Printf.sprintf "%s metrics: %s" c.name e))
    t.shards
  |> Cs_obs.Metrics.merge_all

let gateway_stats t =
  match Cs_svc.Client.fetch_stats ~addr:t.gateway.addr () with
  | Ok s -> s
  | Error e -> failwith (Printf.sprintf "gateway stats: %s" e)
