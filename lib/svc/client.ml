(* Connect, pipeline [lines], half-close the write side so the peer
   sees EOF, then feed every reply line to [handle] until the peer
   closes; always close. *)
let exchange ?timeout_s addr lines handle =
  match Transport.connect addr with
  | exception Unix.Unix_error (e, fn, _) ->
    Error
      (Printf.sprintf "connect %s: %s (%s)" (Transport.to_string addr)
         (Unix.error_message e) fn)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Option.iter (fun t -> Unix.setsockopt_float fd SO_RCVTIMEO t) timeout_s;
        match
          List.iter (Wire.write_line fd) lines;
          Unix.shutdown fd SHUTDOWN_SEND
        with
        | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "send: %s" (Unix.error_message e))
        | () -> Wire.read_lines fd handle)

(* Batch submit: the server closes only after answering every request.
   Replies arrive in completion order, not submission order; match them
   by id. *)
let submit ?timeout_s ?on_reply ~addr requests =
  let replies = ref [] and bad = ref None in
  let handle line =
    match Proto.reply_of_line line with
    | Ok reply ->
      Option.iter (fun f -> f reply) on_reply;
      replies := reply :: !replies
    | Error e -> if !bad = None then bad := Some e
  in
  Result.bind
    (exchange ?timeout_s addr (List.map Proto.request_to_line requests) handle)
    (fun () ->
      match !bad with
      | Some e -> Error (Printf.sprintf "bad reply line: %s" e)
      | None -> Ok (List.rev !replies))

(* One control round trip against a serve or gateway socket: one line
   out, the first well-formed answer back. *)
let round_trip ~timeout_s ~addr ~missing line parse =
  let result = ref (Error missing) in
  let handle line =
    if Result.is_error !result then result := Result.map snd (parse line)
  in
  Result.bind (exchange ~timeout_s addr [ line ] handle) (fun () -> !result)

let fetch_stats ?(timeout_s = 5.0) ~addr () =
  round_trip ~timeout_s ~addr ~missing:"no pong before EOF" (Proto.stats_line ())
    Proto.pong_of_line

let fetch_metrics ?(timeout_s = 5.0) ?(format = Proto.Metrics_json) ~addr () =
  round_trip ~timeout_s ~addr ~missing:"no metrics reply before EOF"
    (Proto.metrics_line ~format ()) Proto.metrics_reply_of_line
