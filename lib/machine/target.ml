(* Plain decimal digits only: [int_of_string] would also take a sign,
   a 0x/0o/0b prefix and underscores, so "raw0x10" would name raw16. *)
let count s =
  if s <> "" && String.for_all (fun c -> '0' <= c && c <= '9') s then
    match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None
  else None

let after prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let vliw n_clusters = Vliw.create ~n_clusters ()

let of_name name =
  let s = String.lowercase_ascii (String.trim name) in
  let machine =
    match (after "raw-" s, after "vliw-" s, after "raw" s, after "vliw" s) with
    | Some dims, _, _, _ ->
      (match List.map count (String.split_on_char 'x' dims) with
      | [ Some rows; Some cols ] -> Some (Raw.create ~rows ~cols ())
      | _ -> None)
    | _, Some n, _, _ when String.ends_with ~suffix:"c" n ->
      Option.map vliw (count (String.sub n 0 (String.length n - 1)))
    | _, _, Some n, _ -> Option.map Raw.with_tiles (count n)
    | _, _, _, Some "" -> Some (vliw 4)
    | _, _, _, Some n -> Option.map vliw (count n)
    | _ -> None
  in
  Option.to_result machine
    ~none:(Printf.sprintf "unknown machine %S (want raw<N>, raw-RxC, vliw<N> or vliw-Nc)" name)
