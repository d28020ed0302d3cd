(** The line-protocol endpoint: every socket write, line read and
    accept loop of the service tier ({!Server}, the gateway, {!Client})
    goes through here.

    The endpoint owns the process's SIGPIPE disposition: it is ignored
    once, before the first socket write, so a write to a peer that has
    gone away raises [EPIPE] instead of killing the process. *)

(** {1 Streams} *)

val write_line : Unix.file_descr -> string -> unit
(** Write [line ^ "\n"] in full. Raises [Unix.Unix_error]. *)

type splitter
(** Incremental newline framing over arbitrarily cut chunks. *)

val splitter : (string -> unit) -> splitter
(** A splitter handing each complete line (without its newline) to the
    handler. *)

val feed : splitter -> Bytes.t -> int -> int -> unit
(** [feed sp b off len] consumes [b.[off .. off+len-1]]. *)

val flush : splitter -> unit
(** Hand over the final piece that no newline ended (possibly empty).
    Feeding a string in any chunking and then flushing yields exactly
    the pieces of [String.split_on_char '\n']. *)

val read_lines : Unix.file_descr -> (string -> unit) -> (unit, string) result
(** Read until EOF in 4 KB chunks, handing every line to the handler,
    trimmed; blank lines are skipped and a final line without a
    newline counts. [EINTR] is retried. Errors: ["timed out waiting for
    replies"] when a receive timeout expires, ["recv: ..."] otherwise. *)

(** {1 Connections}

    A connection is written by several domains (one per reply) and
    closes on the later of two completion edges: its reader hit EOF,
    and its last pending reply was sent. *)

type conn

val send_line : conn -> string -> unit
(** Write one line under the connection's output mutex. A closed or
    vanished peer is silently skipped: there is nobody to tell. *)

val job_started : conn -> unit
(** One more reply is owed on this connection. *)

val job_done : conn -> unit
(** The owed reply was sent (or dropped); closes the connection if the
    reader already hit EOF and nothing else is pending. *)

val sever : conn -> unit
(** [shutdown] both directions without closing: a reader blocked on the
    socket wakes with EOF, and the fd still closes exactly once on the
    last completion edge. *)

(** {1 Listeners} *)

type listener

val listen : Transport.addr -> listener
(** Bind and listen (see {!Transport.listen}). *)

val address : listener -> Transport.addr
(** The concrete bound address ({!Transport.bound_addr}). *)

val serve : listener -> stopping:bool Atomic.t -> (conn -> string -> unit) -> unit
(** Accept until [stopping] is set, reading each connection on its own
    domain and handing its lines to [handler conn]; the reader's EOF is
    the connection's first completion edge. When no reader domain can
    be spawned the connection is closed at once (its client sees EOF
    with no reply) and accepting goes on. Returns after every reader
    has been joined. *)

val wake : listener -> unit
(** Unblock a {!serve} waiting in [accept] with a throwaway
    self-connection, so it observes [stopping]. *)

val connections : listener -> conn list
(** The connections not yet closed. *)

val close : listener -> unit
(** Close the listening socket and remove a Unix socket file. *)
