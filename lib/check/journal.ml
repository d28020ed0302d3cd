(* Fuzz-run journal: which seed chunks have completed and which seeds
   produced violations, as space-separated integer records in a WAL:

     fuzz-journal 2 <lo> <hi> <degraded 0|1>
     chunk <lo> <hi> <violation seed>...

   Scenarios are deterministic functions of their seed, so the journal
   never stores regions: a resumed run regenerates violation scenarios
   from their seeds. *)

module Wal = Cs_util.Wal

type t = {
  wal : Wal.t;
  mutex : Mutex.t;
  mutable chunks : (int * int) list; (* completed inclusive seed ranges *)
  mutable violations : int list; (* seeds whose oracle run rejected *)
}

let header ~degraded (lo, hi) =
  Printf.sprintf "fuzz-journal 2 %d %d %d" lo hi (Bool.to_int degraded)

let note t chunk violations =
  t.chunks <- chunk :: t.chunks;
  t.violations <- List.rev_append violations t.violations

let replay t payload =
  match String.split_on_char ' ' payload with
  | "chunk" :: rest ->
    (match List.filter_map int_of_string_opt rest with
    | lo :: hi :: violations -> note t (lo, hi) violations
    | _ -> ())
  | _ -> ()

let open_dir ?(resume = false) ~dir ?(degraded = false) ~seeds () =
  match Wal.open_dir ~dir () with
  | exception Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "journal %s: %s" dir (Unix.error_message err))
  | exception Sys_error msg -> Error ("journal " ^ msg)
  | wal, recovery ->
    let t = { wal; mutex = Mutex.create (); chunks = []; violations = [] } in
    (match recovery.Wal.records with
    | first :: records when resume && first = header ~degraded seeds ->
      List.iter (replay t) records
    | _ ->
      Wal.reset wal;
      Wal.append_sync wal (header ~degraded seeds));
    Ok t

let record t ~chunk:(lo, hi) ~violations =
  Wal.append_sync t.wal
    (String.concat " " ("chunk" :: List.map string_of_int (lo :: hi :: violations)));
  Mutex.lock t.mutex;
  note t (lo, hi) violations;
  Mutex.unlock t.mutex

let is_done t seed =
  List.exists (fun (lo, hi) -> lo <= seed && seed <= hi) t.chunks

let violation_seeds t = List.sort_uniq compare t.violations

let close t = Wal.close t.wal
