(** The one grammar for naming a target machine, shared by the CLI's
    [-m], the service protocol's ["machine"] field and repro files.
    Case-insensitive, surrounding whitespace ignored; counts are plain
    decimal digits and must be positive:

    - [raw<N>]: the squarest mesh of [N] tiles ({!Raw.with_tiles});
    - [raw-RxC]: an [R x C] mesh;
    - [vliw], [vliw<N>], [vliw-Nc]: a clustered VLIW with [N] clusters
      (4 when omitted).

    Every machine's [name] ([raw-RxC] / [vliw-Nc]) parses back to it. *)

val of_name : string -> (Machine.t, string) result
