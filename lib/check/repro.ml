type t = {
  scenario : Scenario.t;
  check : string option;
  note : string option;
}

let header_line key value = Printf.sprintf "%s %s\n" key value

(* The canonical scenario hash doubles as the repro file's integrity
   fingerprint: recorded on save, re-derived and compared on load, so a
   hand-edited or truncated repro is rejected instead of silently
   replaying a different scenario. *)
let fingerprint (scenario : Scenario.t) =
  Cs_core.Scenario.hex
    (Cs_core.Scenario.canonical_hash ~faults:scenario.Scenario.faults
       ~spec:
         (Printf.sprintf "%s seed %d"
            (Scenario.spec_to_string scenario.Scenario.spec)
            scenario.Scenario.seed)
       ~machine:scenario.Scenario.machine scenario.Scenario.region)

let to_string t =
  let b = Buffer.create 512 in
  Buffer.add_string b "cs-check-repro v1\n";
  Buffer.add_string b (header_line "machine" t.scenario.Scenario.machine.Cs_machine.Machine.name);
  Buffer.add_string b (header_line "scheduler" (Scenario.spec_to_string t.scenario.Scenario.spec));
  Buffer.add_string b (header_line "seed" (string_of_int t.scenario.Scenario.seed));
  if t.scenario.Scenario.faults <> [] then
    Buffer.add_string b
      (header_line "faults" (Cs_resil.Fault.to_string t.scenario.Scenario.faults));
  Buffer.add_string b (header_line "label" t.scenario.Scenario.label);
  Buffer.add_string b (header_line "fingerprint" (fingerprint t.scenario));
  Option.iter (fun c -> Buffer.add_string b (header_line "check" c)) t.check;
  Option.iter (fun n -> Buffer.add_string b (header_line "note" n)) t.note;
  Buffer.add_string b "region\n";
  Buffer.add_string b (Cs_ddg.Textual.to_string t.scenario.Scenario.region);
  Buffer.contents b

let split_header line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | magic :: rest when String.trim magic = "cs-check-repro v1" ->
    let rec parse_headers machine spec seed faults label check note fp = function
      | [] -> Error "missing 'region' section"
      | line :: rest ->
        let line = String.trim line in
        if line = "" then parse_headers machine spec seed faults label check note fp rest
        else if line = "region" then begin
          let region_text = String.concat "\n" rest in
          let ( let* ) = Result.bind in
          let* machine =
            match machine with
            | Some m -> Ok m
            | None -> Error "missing 'machine' header"
          in
          let* spec =
            match spec with Some s -> Ok s | None -> Error "missing 'scheduler' header"
          in
          let* region = Cs_ddg.Textual.of_string region_text in
          let faults = Option.value ~default:[] faults in
          let* () =
            (* The plan must apply to the named machine, or the repro is
               corrupt. *)
            match Cs_machine.Machine.degrade machine faults with
            | _ -> Ok ()
            | exception Cs_resil.Error.Error e ->
              Error ("fault plan does not fit machine: " ^ Cs_resil.Error.message e)
          in
          (match Cs_machine.Machine.validate_region machine region with
          | Error msg -> Error ("region does not fit machine: " ^ msg)
          | Ok () ->
            let scenario =
              {
                Scenario.label = Option.value ~default:"repro" label;
                seed = Option.value ~default:0 seed;
                machine;
                faults;
                region;
                spec;
              }
            in
            let* () =
              match fp with
              | None -> Ok ()
              | Some recorded ->
                let actual = fingerprint scenario in
                if String.equal recorded actual then Ok ()
                else
                  Error
                    (Printf.sprintf
                       "fingerprint mismatch: file says %s, content hashes to %s \
                        (repro edited or corrupt)"
                       recorded actual)
            in
            Ok { scenario; check; note })
        end
        else begin
          let key, value = split_header line in
          match key with
          | "machine" ->
            (match Cs_machine.Target.of_name value with
            | Ok m -> parse_headers (Some m) spec seed faults label check note fp rest
            | Error msg -> Error msg)
          | "scheduler" ->
            (match Scenario.spec_of_string value with
            | Ok sp -> parse_headers machine (Some sp) seed faults label check note fp rest
            | Error msg -> Error msg)
          | "seed" ->
            (match int_of_string_opt value with
            | Some n -> parse_headers machine spec (Some n) faults label check note fp rest
            | None -> Error (Printf.sprintf "bad seed %S" value))
          | "faults" ->
            (match Cs_resil.Fault.parse value with
            | Ok plan -> parse_headers machine spec seed (Some plan) label check note fp rest
            | Error msg -> Error msg)
          | "label" -> parse_headers machine spec seed faults (Some value) check note fp rest
          | "check" -> parse_headers machine spec seed faults label (Some value) note fp rest
          | "note" -> parse_headers machine spec seed faults label check (Some value) fp rest
          | "fingerprint" ->
            parse_headers machine spec seed faults label check note (Some value) rest
          | _ -> Error (Printf.sprintf "unknown header %S" key)
        end
    in
    parse_headers None None None None None None None None rest
  | _ -> Error "not a cs-check-repro file (missing magic line)"

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

let save ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let base =
    Printf.sprintf "seed%d-%s-%s" t.scenario.Scenario.seed t.scenario.Scenario.label
      (Option.value ~default:"violation" t.check)
  in
  let rec fresh k =
    let path =
      Filename.concat dir
        (if k = 0 then base ^ ".repro" else Printf.sprintf "%s-%d.repro" base k)
    in
    if Sys.file_exists path then fresh (k + 1) else path
  in
  let path = fresh 0 in
  Cs_util.Fsio.write_atomic ~path (to_string t);
  path

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load path))

let replay t = Oracle.run t.scenario
