let two_hop graph i =
  let direct = Cs_ddg.Graph.neighbors graph i in
  let seen = Hashtbl.create 16 in
  Hashtbl.add seen i ();
  List.iter (fun j -> Hashtbl.replace seen j ()) direct;
  let grand = ref [] in
  List.iter
    (fun j ->
      List.iter
        (fun k ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            grand := k :: !grand
          end)
        (Cs_ddg.Graph.neighbors graph j))
    direct;
  (direct, !grand)

let apply ~eps ~grand ~grand_weight ~per_slot ~strengthen_preferred ctx w =
  let graph = Context.graph ctx in
  let nc = Weights.nc w in
  (* Neighbours are read as they were before the pass. The per-slot
     mode reads whole entries, so it snapshots the matrix; the default
     mode reads only cluster marginals, so it snapshots those
     (n * nc floats instead of n * nc * nt). *)
  let snap =
    if per_slot then `Entries (Weights.copy w)
    else
      `Cluster_weights
        (Array.init (Weights.n w * nc) (fun k ->
             Weights.cluster_weight w (k / nc) (k mod nc)))
  in
  let factors = Array.make nc 0.0 in
  for i = 0 to Weights.n w - 1 do
    let direct, grands =
      if grand then two_hop graph i else (Cs_ddg.Graph.neighbors graph i, [])
    in
    if direct <> [] || grands <> [] then
      match snap with
      | `Entries snap ->
        (* The paper's literal formula: couple on identical (c, t) slots. *)
        for c = 0 to nc - 1 do
          for tt = 0 to Weights.nt w - 1 do
            let pull = ref 0.0 in
            List.iter (fun j -> pull := !pull +. Weights.get snap j c tt) direct;
            List.iter
              (fun j -> pull := !pull +. (grand_weight *. Weights.get snap j c tt))
              grands;
            Weights.scale w i c tt (eps +. !pull)
          done
        done
      | `Cluster_weights cw ->
        (* Space-marginal coupling: dependent instructions execute at
           *different* times, so the spatial pull is the neighbors' whole
           cluster marginal, applied uniformly across feasible slots.
           The per-cluster pulls are gathered first (O(1) each off the
           marginal snapshot), then applied in one fused row sweep. *)
        for c = 0 to nc - 1 do
          let pull = ref 0.0 in
          List.iter (fun j -> pull := !pull +. cw.((j * nc) + c)) direct;
          List.iter
            (fun j -> pull := !pull +. (grand_weight *. cw.((j * nc) + c)))
            grands;
          factors.(c) <- eps +. !pull
        done;
        Weights.scale_clusters w i factors
  done;
  if strengthen_preferred > 1.0 then
    for i = 0 to Weights.n w - 1 do
      let pc = Weights.preferred_cluster w i and pt = Weights.preferred_time w i in
      Weights.scale w i pc pt strengthen_preferred
    done

let pass ?(eps = 1e-4) ?(grand = true) ?(grand_weight = 0.5) ?(per_slot = false)
    ?(strengthen_preferred = 2.0) () =
  Pass.make
    ~params:
      [ ("eps", eps); ("grand", if grand then 1.0 else 0.0);
        ("grand_weight", grand_weight); ("per_slot", if per_slot then 1.0 else 0.0);
        ("strengthen_preferred", strengthen_preferred) ]
    ~name:"COMM" ~kind:Pass.Space
    (apply ~eps ~grand ~grand_weight ~per_slot ~strengthen_preferred)
