(* --- streams ---------------------------------------------------------- *)

(* Set before the first socket write; domains racing here both install
   the same disposition, which is harmless. *)
let sigpipe_ignored = Atomic.make false

let write_line fd line =
  if not (Atomic.get sigpipe_ignored) then begin
    if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Atomic.set sigpipe_ignored true
  end;
  let s = line ^ "\n" in
  let n = String.length s in
  let rec write_all off =
    if off < n then write_all (off + Unix.write_substring fd s off (n - off))
  in
  write_all 0

(* [partial] holds the bytes after the last newline seen; a chunk is
   scanned from its own offset, so no line copies the carried prefix
   more than once. *)
type splitter = { partial : Buffer.t; emit : string -> unit }

let splitter emit = { partial = Buffer.create 256; emit }

let take_partial sp =
  let s = Buffer.contents sp.partial in
  Buffer.clear sp.partial;
  s

let feed sp b off len =
  let stop = off + len in
  let rec scan start i =
    if i >= stop then Buffer.add_subbytes sp.partial b start (stop - start)
    else if Bytes.get b i <> '\n' then scan start (i + 1)
    else begin
      let line =
        if Buffer.length sp.partial = 0 then Bytes.sub_string b start (i - start)
        else begin
          Buffer.add_subbytes sp.partial b start (i - start);
          take_partial sp
        end
      in
      sp.emit line;
      scan (i + 1) (i + 1)
    end
  in
  scan off off

let flush sp = sp.emit (take_partial sp)

let read_lines fd handle =
  let sp =
    splitter (fun line ->
        let line = String.trim line in
        if line <> "" then handle line)
  in
  let chunk = Bytes.create 4096 in
  let rec drain_lines () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      flush sp;
      Ok ()
    | n ->
      feed sp chunk 0 n;
      drain_lines ()
    | exception Unix.Unix_error (EINTR, _, _) -> drain_lines ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Error "timed out waiting for replies"
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "recv: %s" (Unix.error_message e))
  in
  drain_lines ()

(* --- connections ---------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  out : Mutex.t;  (* serializes writes and guards the fields below *)
  mutable pending : int;
  mutable reader_done : bool;
  mutable closed : bool;
}

let send_line conn line =
  Mutex.protect conn.out (fun () ->
      if not conn.closed then
        try write_line conn.fd line
        with Unix.Unix_error _ -> () (* peer went away; nothing to tell it *))

let job_started conn = Mutex.protect conn.out (fun () -> conn.pending <- conn.pending + 1)

(* Record one completion edge; the socket closes on the last one. *)
let finish_edge conn edge =
  let close_now =
    Mutex.protect conn.out (fun () ->
        edge ();
        let last = conn.reader_done && conn.pending = 0 && not conn.closed in
        if last then conn.closed <- true;
        last)
  in
  if close_now then try Unix.close conn.fd with Unix.Unix_error _ -> ()

let job_done conn = finish_edge conn (fun () -> conn.pending <- conn.pending - 1)
let reader_done conn = finish_edge conn (fun () -> conn.reader_done <- true)

let sever conn =
  Mutex.protect conn.out (fun () ->
      if not conn.closed then
        try Unix.shutdown conn.fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())

(* --- listeners ------------------------------------------------------ *)

type listener = {
  lfd : Unix.file_descr;
  bound : Transport.addr;
  conns_mutex : Mutex.t;
  mutable conns : conn list;  (* open connections, pruned on accept *)
}

let listen addr =
  let lfd = Transport.listen addr in
  { lfd; bound = Transport.bound_addr lfd addr; conns_mutex = Mutex.create ();
    conns = [] }

let address l = l.bound
let connections l = Mutex.protect l.conns_mutex (fun () -> l.conns)

(* Readers are lightweight (parse + enqueue), so plain threads would
   do; domains keep the service tier to one concurrency primitive. A
   reader finishes soon after its client's EOF, and finished readers
   are joined on the next accept. *)
let serve l ~stopping handler =
  let readers = ref [] in
  let prune () =
    let live, finished =
      List.partition (fun (done_flag, _) -> not (Atomic.get done_flag)) !readers
    in
    List.iter (fun (_, d) -> Domain.join d) finished;
    readers := live;
    (* an unlocked read of [closed] is at worst stale: it only delays
       dropping the connection from the list *)
    Mutex.protect l.conns_mutex (fun () ->
        l.conns <- List.filter (fun c -> not c.closed) l.conns)
  in
  let reader conn done_flag () =
    Fun.protect
      ~finally:(fun () ->
        reader_done conn;
        Atomic.set done_flag true)
      (fun () -> ignore (read_lines conn.fd (handler conn)))
  in
  let rec accept_loop () =
    if not (Atomic.get stopping) then
      match Unix.accept l.lfd with
      | exception Unix.Unix_error _ -> accept_loop ()
      | fd, _ when Atomic.get stopping -> (
        try Unix.close fd with Unix.Unix_error _ -> ())
      | fd, _ ->
        Transport.accepted l.bound fd;
        let conn =
          { fd; out = Mutex.create (); pending = 0; reader_done = false; closed = false }
        in
        prune ();
        Mutex.protect l.conns_mutex (fun () -> l.conns <- conn :: l.conns);
        let done_flag = Atomic.make false in
        (match Domain.spawn (reader conn done_flag) with
        | d -> readers := (done_flag, d) :: !readers
        | exception Failure _ ->
          (* out of domains: with nothing pending the reader edge
             closes the socket, and the client sees EOF with no reply *)
          reader_done conn);
        accept_loop ()
  in
  accept_loop ();
  List.iter (fun (_, d) -> Domain.join d) !readers

let wake l =
  match Transport.connect l.bound with
  | exception Unix.Unix_error _ -> ()
  | fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())

let close l =
  (try Unix.close l.lfd with Unix.Unix_error _ -> ());
  Transport.cleanup l.bound
