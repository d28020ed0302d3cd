(* Fuzzing-throughput experiment (extension): how many differential
   cases per second the cs_check oracle sustains, per worker-domain
   count, and what the generated scenario mix looks like. The oracle is
   also re-asserted clean over the swept seeds, so `bench fuzz` doubles
   as a slow smoke test of the tree. *)

let seeds = (0, 400)

let mix () =
  let shapes = Hashtbl.create 8 and machines = Hashtbl.create 8 in
  let lo, hi = seeds in
  for seed = lo to hi do
    let s = Cs_check.Gen.case ~seed in
    let bump tbl key =
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
    in
    bump shapes s.Cs_check.Scenario.label;
    bump machines s.Cs_check.Scenario.machine.Cs_machine.Machine.name
  done;
  let dump title tbl =
    let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    let rows = List.sort (fun (_, a) (_, b) -> compare b a) rows in
    Printf.printf "%s: %s\n" title
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) rows))
  in
  dump "shape mix" shapes;
  dump "machine mix" machines

let fuzz () =
  Report.section "Extension: differential fuzzing throughput (cs_check)";
  mix ();
  let table =
    Cs_util.Table.create ~header:[ "domains"; "cases"; "violations"; "s"; "cases/s" ]
  in
  List.iter
    (fun domains ->
      let stats, _ = Cs_check.Fuzz.run ~domains ~shrink:false ~seeds () in
      Cs_util.Table.add_row table
        [ string_of_int domains;
          string_of_int stats.Cs_check.Fuzz.cases;
          string_of_int stats.Cs_check.Fuzz.violations;
          Cs_util.Table.cell_float stats.Cs_check.Fuzz.elapsed_s;
          Cs_util.Table.cell_float
            (float_of_int stats.Cs_check.Fuzz.cases
            /. Float.max 1e-9 stats.Cs_check.Fuzz.elapsed_s) ])
    [ 1; 2; 4 ];
  Cs_util.Table.print table;
  Printf.printf
    "expectation: zero violations at HEAD; cases/s scales with domains up to the core count\n"
