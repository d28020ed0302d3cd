(* Unit tests for Cs_machine: units, topologies, machine models. *)

open Cs_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Fu --- *)

let test_fu_universal () =
  List.iter
    (fun op -> check_bool "universal runs all" true (Fu.can_execute Fu.Universal (Cs_ddg.Opcode.cls op)))
    Cs_ddg.Opcode.all

let test_fu_int_alu () =
  check_bool "alu add" true (Fu.can_execute Fu.Int_alu Cs_ddg.Opcode.Int_op);
  check_bool "alu mul" true (Fu.can_execute Fu.Int_alu Cs_ddg.Opcode.Mul_op);
  check_bool "alu no load" false (Fu.can_execute Fu.Int_alu Cs_ddg.Opcode.Mem_op);
  check_bool "alu no fp" false (Fu.can_execute Fu.Int_alu Cs_ddg.Opcode.Float_op)

let test_fu_int_mem () =
  check_bool "mem load" true (Fu.can_execute Fu.Int_mem Cs_ddg.Opcode.Mem_op);
  check_bool "mem add" true (Fu.can_execute Fu.Int_mem Cs_ddg.Opcode.Int_op);
  check_bool "mem no mul" false (Fu.can_execute Fu.Int_mem Cs_ddg.Opcode.Mul_op)

let test_fu_float () =
  check_bool "fpu fadd" true (Fu.can_execute Fu.Float_unit Cs_ddg.Opcode.Float_op);
  check_bool "fpu fdiv" true (Fu.can_execute Fu.Float_unit Cs_ddg.Opcode.Fdiv_op);
  check_bool "fpu no int" false (Fu.can_execute Fu.Float_unit Cs_ddg.Opcode.Int_op)

let test_fu_transfer () =
  check_bool "xfer comm" true (Fu.can_execute Fu.Transfer_unit Cs_ddg.Opcode.Comm_op);
  check_bool "xfer nothing else" false (Fu.can_execute Fu.Transfer_unit Cs_ddg.Opcode.Int_op)

(* --- Topology --- *)

let mesh44 = Topology.mesh ~rows:4 ~cols:4 ()
let xbar = Topology.Crossbar { latency = 1 }

let test_mesh_hops () =
  check_int "self" 0 (Topology.hops mesh44 5 5);
  check_int "neighbor" 1 (Topology.hops mesh44 0 1);
  check_int "row hop" 1 (Topology.hops mesh44 0 4);
  check_int "corner to corner" 6 (Topology.hops mesh44 0 15);
  check_int "manhattan" 3 (Topology.hops mesh44 0 6)

let test_mesh_latency () =
  check_int "same tile" 0 (Topology.comm_latency mesh44 ~src:2 ~dst:2);
  check_int "neighbor 3 cycles" 3 (Topology.comm_latency mesh44 ~src:0 ~dst:1);
  check_int "+1 per extra hop" 8 (Topology.comm_latency mesh44 ~src:0 ~dst:15)

let test_mesh_route_xy () =
  let route = Topology.route mesh44 ~src:0 ~dst:5 in
  (* X first: 0 -> 1, then Y: 1 -> 5. *)
  check_int "two links" 2 (List.length route);
  let l1 = List.nth route 0 and l2 = List.nth route 1 in
  check_int "first from" 0 l1.Topology.from_node;
  check_int "first to" 1 l1.Topology.to_node;
  check_int "second from" 1 l2.Topology.from_node;
  check_int "second to" 5 l2.Topology.to_node

let test_mesh_route_length_equals_hops () =
  for src = 0 to 15 do
    for dst = 0 to 15 do
      check_int "route = hops"
        (Topology.hops mesh44 src dst)
        (List.length (Topology.route mesh44 ~src ~dst))
    done
  done

let test_mesh_route_contiguous () =
  let route = Topology.route mesh44 ~src:12 ~dst:3 in
  let rec walk = function
    | a :: (b :: _ as rest) ->
      check_int "contiguous" a.Topology.to_node b.Topology.from_node;
      walk rest
    | _ -> ()
  in
  walk route

let test_crossbar () =
  check_int "xbar hop" 1 (Topology.hops xbar 0 3);
  check_int "xbar latency" 1 (Topology.comm_latency xbar ~src:0 ~dst:3);
  check_int "xbar self" 0 (Topology.comm_latency xbar ~src:1 ~dst:1);
  check_int "xbar route empty" 0 (List.length (Topology.route xbar ~src:0 ~dst:3))

let test_mesh_coords () =
  check_bool "coords of 5" true (Topology.coords mesh44 5 = (1, 1));
  Alcotest.check_raises "crossbar coords" (Invalid_argument "Topology.coords: not a mesh")
    (fun () -> ignore (Topology.coords xbar 0))

(* --- Machine --- *)

let test_raw_defaults () =
  let m = Raw.create () in
  check_int "16 tiles" 16 (Machine.n_clusters m);
  check_int "1 fu" 1 (Machine.issue_width m);
  check_bool "is mesh" true (Machine.is_mesh m);
  check_int "neighbor latency" 3 (Machine.comm_latency m ~src:0 ~dst:1)

let test_raw_with_tiles () =
  check_int "2 tiles" 2 (Machine.n_clusters (Raw.with_tiles 2));
  check_int "8 tiles" 8 (Machine.n_clusters (Raw.with_tiles 8));
  check_int "1 tile" 1 (Machine.n_clusters (Raw.with_tiles 1))

let test_vliw_defaults () =
  let m = Vliw.create () in
  check_int "4 clusters" 4 (Machine.n_clusters m);
  check_int "4 fus" 4 (Machine.issue_width m);
  check_bool "not mesh" false (Machine.is_mesh m);
  check_int "1 cycle copy" 1 (Machine.comm_latency m ~src:0 ~dst:3);
  check_int "remote penalty" 1 m.Machine.remote_mem_penalty

let test_vliw_fus_for () =
  let m = Vliw.create () in
  check_int "2 int units" 2 (List.length (Machine.fus_for m ~cluster:0 Cs_ddg.Opcode.Add));
  check_int "1 mem unit" 1 (List.length (Machine.fus_for m ~cluster:0 Cs_ddg.Opcode.Load));
  check_int "1 fpu" 1 (List.length (Machine.fus_for m ~cluster:0 Cs_ddg.Opcode.Fadd));
  check_int "1 mul unit" 1 (List.length (Machine.fus_for m ~cluster:0 Cs_ddg.Opcode.Mul))

let test_raw_can_execute_everything () =
  let m = Raw.with_tiles 4 in
  List.iter
    (fun op -> check_bool "tile executes" true (Machine.can_execute m ~cluster:0 op))
    Cs_ddg.Opcode.all

let test_machine_rejects_bad_mesh () =
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Machine.make: mesh size disagrees with cluster count") (fun () ->
      ignore
        (Machine.make ~name:"bad" ~fus:(Array.make 3 [| Fu.Universal |])
           ~topology:(Topology.mesh ~rows:2 ~cols:2 ())
           ()))

let test_latency_model () =
  check_int "add 1" 1 (Latency.r4000 Cs_ddg.Opcode.Add);
  check_int "load 2" 2 (Latency.r4000 Cs_ddg.Opcode.Load);
  check_int "fadd 4" 4 (Latency.r4000 Cs_ddg.Opcode.Fadd);
  check_int "fdiv 12" 12 (Latency.r4000 Cs_ddg.Opcode.Fdiv);
  List.iter
    (fun op -> check_bool "latency positive" true (Latency.r4000 op >= 1))
    Cs_ddg.Opcode.all;
  List.iter
    (fun op -> check_int "unit" 1 (Latency.unit_latency op))
    Cs_ddg.Opcode.all

let test_validate_region_preplacement () =
  let b = Cs_ddg.Builder.create ~name:"v" () in
  let addr = Cs_ddg.Builder.op0 b Cs_ddg.Opcode.Const in
  let _l = Cs_ddg.Builder.load b ~preplace:9 addr in
  let region = Cs_ddg.Builder.finish b in
  let m = Vliw.create () in
  check_bool "rejects bank 9 on 4 clusters" true
    (match Machine.validate_region m region with Error _ -> true | Ok () -> false);
  let m16 = Raw.with_tiles 16 in
  check_bool "accepts on 16 tiles" true
    (match Machine.validate_region m16 region with Ok () -> true | Error _ -> false)

let test_validate_region_live_in_home () =
  let b = Cs_ddg.Builder.create ~name:"vh" () in
  let x = Cs_ddg.Builder.live_in ~home:7 b in
  let _y = Cs_ddg.Builder.op1 b Cs_ddg.Opcode.Fadd x in
  let region = Cs_ddg.Builder.finish b in
  check_bool "rejects home 7 on 4 clusters" true
    (match Machine.validate_region (Vliw.create ()) region with Error _ -> true | Ok () -> false)

(* --- Target: the one machine grammar --- *)

(* One row per spelling: the input and the name of the machine it
   parses to, or [None] where it must be rejected. *)
let grammar_rows =
  [ ("raw16", Some "raw-4x4");
    ("RAW16", Some "raw-4x4");
    (" raw16 ", Some "raw-4x4");
    ("raw-4x4", Some "raw-4x4");
    ("raw-2x8", Some "raw-2x8");
    ("raw4", Some "raw-2x2");
    ("Raw-1X2", Some "raw-1x2");
    ("vliw", Some "vliw-4c");
    ("vliw4", Some "vliw-4c");
    ("vliw-4c", Some "vliw-4c");
    ("VLIW-2C", Some "vliw-2c");
    ("vliw1", Some "vliw-1c");
    ("raw0", None);
    ("raw-4", None);
    ("raw-0x4", None);
    ("raw-4x4x4", None);
    ("vliw-0c", None);
    ("vliw-4", None);
    ("vliw0", None);
    ("", None);
    ("   ", None);
    ("mesh16", None);
    ("raw", None);
    (* [int_of_string] reads these as 16; the grammar takes plain
       decimal digits only *)
    ("raw0x10", None);
    ("raw+16", None);
    ("raw1_6", None);
    ("vliw-0x4c", None) ]

let test_target_grammar () =
  let parse s = Result.to_option (Target.of_name s) |> Option.map (fun m -> m.Machine.name) in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check (option string)) (Printf.sprintf "%S" input) expected (parse input);
      (* every machine's own name parses back to it *)
      Option.iter
        (fun name -> Alcotest.(check (option string)) (name ^ " round trip") expected (parse name))
        expected)
    grammar_rows

let () =
  Alcotest.run "cs_machine"
    [
      ( "fu",
        [
          Alcotest.test_case "universal" `Quick test_fu_universal;
          Alcotest.test_case "int alu" `Quick test_fu_int_alu;
          Alcotest.test_case "int mem" `Quick test_fu_int_mem;
          Alcotest.test_case "float" `Quick test_fu_float;
          Alcotest.test_case "transfer" `Quick test_fu_transfer;
        ] );
      ( "topology",
        [
          Alcotest.test_case "mesh hops" `Quick test_mesh_hops;
          Alcotest.test_case "mesh latency" `Quick test_mesh_latency;
          Alcotest.test_case "route xy" `Quick test_mesh_route_xy;
          Alcotest.test_case "route length" `Quick test_mesh_route_length_equals_hops;
          Alcotest.test_case "route contiguous" `Quick test_mesh_route_contiguous;
          Alcotest.test_case "crossbar" `Quick test_crossbar;
          Alcotest.test_case "coords" `Quick test_mesh_coords;
        ] );
      ( "machine",
        [
          Alcotest.test_case "raw defaults" `Quick test_raw_defaults;
          Alcotest.test_case "raw with_tiles" `Quick test_raw_with_tiles;
          Alcotest.test_case "vliw defaults" `Quick test_vliw_defaults;
          Alcotest.test_case "vliw fus_for" `Quick test_vliw_fus_for;
          Alcotest.test_case "raw executes all" `Quick test_raw_can_execute_everything;
          Alcotest.test_case "rejects bad mesh" `Quick test_machine_rejects_bad_mesh;
          Alcotest.test_case "latency model" `Quick test_latency_model;
          Alcotest.test_case "validate preplacement" `Quick test_validate_region_preplacement;
          Alcotest.test_case "validate live-in home" `Quick test_validate_region_live_in_home;
        ] );
      ("target", [ Alcotest.test_case "machine name grammar" `Quick test_target_grammar ]);
    ]
