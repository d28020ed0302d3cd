(** Crash-safe fuzz-run journal for [csched fuzz --resume].

    A {!Cs_util.Wal} record log in its own directory: one header record
    holding the seed range and the degraded flag, then one record per
    completed seed chunk holding the chunk and the seeds in it that
    produced violations. A process killed mid-run loses at most the
    chunks still in flight (a torn last record is truncated on open);
    a resumed run skips the recorded chunks. Because scenarios are
    deterministic functions of their seed, violations are re-derived
    from their recorded seeds on resume, so the combined findings are
    bit-identical to an uninterrupted run's. *)

type t

val open_dir :
  ?resume:bool -> dir:string -> ?degraded:bool -> seeds:int * int -> unit ->
  (t, string) result
(** Open the journal in [dir] (created if needed) for the given
    inclusive seed range. Without [resume] (the default) the log is
    reset to a fresh header. With [resume], an existing log whose
    header matches [seeds] and [degraded] is kept, and one for another
    configuration is reset: it is not resumable. [Error] when [dir] is
    unusable. *)

val record : t -> chunk:int * int -> violations:int list -> unit
(** Mark an inclusive seed range complete with its violation seeds: one
    durable record. Safe to call from multiple domains. *)

val is_done : t -> int -> bool
(** Seed covered by a recorded chunk. *)

val violation_seeds : t -> int list
(** Recorded violation seeds, deduplicated, ascending. *)

val close : t -> unit
