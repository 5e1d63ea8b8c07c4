module G = Ic_topology.Graph

let feq_tol tol = Alcotest.(check (float tol))

let diamond () =
  (* 0 -> 1 -> 3 and 0 -> 2 -> 3, all weight 1: two equal shortest paths *)
  let g = G.create ~names:[| "a"; "b"; "c"; "d" |] in
  let g = G.add_link g 0 1 in
  let g = G.add_link g 0 2 in
  let g = G.add_link g 1 3 in
  let g = G.add_link g 2 3 in
  g

let line () =
  let g = G.create ~names:[| "x"; "y"; "z" |] in
  let g = G.add_link g 0 1 in
  G.add_link g 1 2

let test_graph_basics () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (G.node_count g);
  Alcotest.(check int) "directed edges" 8 (G.edge_count g);
  Alcotest.(check (option int)) "lookup" (Some 2) (G.index_of_name g "c");
  Alcotest.(check (option int)) "missing" None (G.index_of_name g "q");
  Alcotest.(check bool) "connected" true (G.is_connected g);
  Alcotest.(check bool)
    "edge exists" true
    (Option.is_some (G.find_edge g ~src:0 ~dst:1));
  Alcotest.(check bool)
    "no direct edge" true
    (Option.is_none (G.find_edge g ~src:0 ~dst:3))

let test_graph_errors () =
  let g = diamond () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (G.add_edge g 1 1));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.add_edge: duplicate edge 0 -> 1") (fun () ->
      ignore (G.add_edge g 0 1))

let test_graph_disconnected () =
  let g = G.create ~names:[| "a"; "b"; "c" |] in
  let g = G.add_link g 0 1 in
  Alcotest.(check bool) "disconnected" false (G.is_connected g)

let test_dijkstra_line () =
  let g = line () in
  let r = Ic_topology.Dijkstra.run g 0 in
  feq_tol 1e-12 "self" 0. r.dist.(0);
  feq_tol 1e-12 "one hop" 1. r.dist.(1);
  feq_tol 1e-12 "two hops" 2. r.dist.(2)

let test_dijkstra_weights () =
  (* a heavy direct edge vs a light two-hop path *)
  let g = G.create ~names:[| "a"; "b"; "c" |] in
  let g = G.add_link ~weight:5. g 0 2 in
  let g = G.add_link g 0 1 in
  let g = G.add_link g 1 2 in
  let r = Ic_topology.Dijkstra.run g 0 in
  feq_tol 1e-12 "takes the detour" 2. r.dist.(2)

let test_dijkstra_unreachable () =
  let g = G.create ~names:[| "a"; "b" |] in
  let r = Ic_topology.Dijkstra.run g 0 in
  Alcotest.(check bool) "unreachable" false r.reachable.(1)

let test_shortest_path_edges () =
  let g = diamond () in
  let dist = Ic_topology.Dijkstra.all_pairs g in
  let edges = Ic_topology.Dijkstra.shortest_path_edges g dist ~src:0 ~dst:3 in
  Alcotest.(check int) "both branches" 4 (List.length edges)

let test_routing_ecmp_split () =
  let g = diamond () in
  let routing = Ic_topology.Routing.build ~with_marginals:false g in
  let n = 4 in
  let x = Array.make (n * n) 0. in
  x.(Ic_topology.Routing.od_index ~n 0 3) <- 100.;
  let y = Ic_topology.Routing.link_loads routing x in
  (* both branches carry half *)
  let edge_01 = Option.get (G.find_edge g ~src:0 ~dst:1) in
  let edge_02 = Option.get (G.find_edge g ~src:0 ~dst:2) in
  feq_tol 1e-9 "split 0->1" 50. y.(edge_01.id);
  feq_tol 1e-9 "split 0->2" 50. y.(edge_02.id)

let test_routing_conservation () =
  (* every off-diagonal OD pair's fractions out of its origin sum to 1 *)
  let g = Ic_topology.Topologies.geant_like () in
  let routing = Ic_topology.Routing.build ~with_marginals:false g in
  let n = G.node_count g in
  let ok = ref true in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then begin
        let col = Ic_topology.Routing.od_index ~n s d in
        let out = ref 0. in
        List.iter
          (fun (e : G.edge) ->
            if e.src = s then
              out := !out +. Ic_linalg.Sparse.get routing.matrix e.id col)
          (G.edges g);
        if Float.abs (!out -. 1.) > 1e-9 then ok := false
      end
    done
  done;
  Alcotest.(check bool) "origin conservation" true !ok

let test_routing_marginals () =
  let g = line () in
  let routing = Ic_topology.Routing.build g in
  let n = 3 in
  let tm = Ic_traffic.Tm.init n (fun i j -> float_of_int ((i * n) + j + 1)) in
  let y = Ic_topology.Routing.link_loads routing (Ic_traffic.Tm.to_vector tm) in
  let ingress = Ic_traffic.Marginals.ingress tm in
  let egress = Ic_traffic.Marginals.egress tm in
  for i = 0 to n - 1 do
    feq_tol 1e-9 "ingress row" ingress.(i)
      y.(Ic_topology.Routing.ingress_row routing i);
    feq_tol 1e-9 "egress row" egress.(i)
      y.(Ic_topology.Routing.egress_row routing i)
  done

let test_routing_no_marginals_errors () =
  let routing = Ic_topology.Routing.build ~with_marginals:false (line ()) in
  Alcotest.check_raises "no marginal rows"
    (Invalid_argument "Routing.ingress_row: built without marginal rows")
    (fun () -> ignore (Ic_topology.Routing.ingress_row routing 0))

let test_link_loads_manual () =
  let g = line () in
  let routing = Ic_topology.Routing.build ~with_marginals:false g in
  let n = 3 in
  let x = Array.make (n * n) 0. in
  x.(Ic_topology.Routing.od_index ~n 0 2) <- 10. (* crosses both links *);
  x.(Ic_topology.Routing.od_index ~n 0 1) <- 5.;
  let y = Ic_topology.Routing.link_loads routing x in
  let e01 = Option.get (G.find_edge g ~src:0 ~dst:1) in
  let e12 = Option.get (G.find_edge g ~src:1 ~dst:2) in
  feq_tol 1e-9 "first link" 15. y.(e01.id);
  feq_tol 1e-9 "second link" 10. y.(e12.id)

let test_builtin_topologies () =
  let check_topo name g expected_nodes =
    Alcotest.(check int) (name ^ " nodes") expected_nodes (G.node_count g);
    Alcotest.(check bool) (name ^ " connected") true (G.is_connected g)
  in
  check_topo "geant" (Ic_topology.Topologies.geant_like ()) 22;
  check_topo "totem" (Ic_topology.Topologies.totem_like ()) 23;
  check_topo "abilene" (Ic_topology.Topologies.abilene_like ()) 12;
  let ab = Ic_topology.Topologies.abilene_like () in
  List.iter
    (fun pop ->
      Alcotest.(check bool) (pop ^ " present") true
        (Option.is_some (G.index_of_name ab pop)))
    [ "IPLS"; "CLEV"; "KSCY" ]

let test_star () =
  let g = Ic_topology.Topologies.star ~n:5 in
  Alcotest.(check int) "edges" 8 (G.edge_count g);
  Alcotest.(check bool) "connected" true (G.is_connected g);
  (* routing across the star passes through the hub *)
  let routing = Ic_topology.Routing.build ~with_marginals:false g in
  let x = Array.make 25 0. in
  x.(Ic_topology.Routing.od_index ~n:5 1 2) <- 8.;
  let y = Ic_topology.Routing.link_loads routing x in
  let e_1hub = Option.get (G.find_edge g ~src:1 ~dst:0) in
  let e_hub2 = Option.get (G.find_edge g ~src:0 ~dst:2) in
  feq_tol 1e-9 "spoke to hub" 8. y.(e_1hub.id);
  feq_tol 1e-9 "hub to spoke" 8. y.(e_hub2.id)

(* --- Topo_io --- *)

let sample_topology_text =
  "# test network\n\
   node a\n\
   node b\n\
   node c\n\
   link a b 2 2e9\n\
   link b c\n"

let test_topo_parse () =
  match Ic_topology.Topo_io.parse sample_topology_text with
  | Error e -> Alcotest.fail e
  | Ok g ->
      Alcotest.(check int) "nodes" 3 (G.node_count g);
      Alcotest.(check int) "directed edges" 4 (G.edge_count g);
      let e = Option.get (G.find_edge g ~src:0 ~dst:1) in
      feq_tol 1e-12 "weight" 2. e.weight;
      feq_tol 1e-3 "capacity" 2e9 e.capacity;
      let e2 = Option.get (G.find_edge g ~src:1 ~dst:2) in
      feq_tol 1e-12 "default weight" 1. e2.weight

let test_topo_parse_errors () =
  let check_err text fragment =
    match Ic_topology.Topo_io.parse text with
    | Ok _ -> Alcotest.fail ("expected error for: " ^ text)
    | Error e ->
        let contains =
          let nl = String.length fragment and hl = String.length e in
          let rec go i =
            i + nl <= hl
            && (String.sub e i nl = fragment || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) ("mentions " ^ fragment) true contains
  in
  check_err "node a\nlink a b\n" "unknown node b";
  check_err "node a\nnode a\n" "duplicate node a";
  check_err "frob x\n" "expected 'node' or 'link'";
  check_err "node a\nnode b\nlink a b -1\n" "bad number";
  check_err "" "no nodes"

let test_topo_roundtrip () =
  let g = Ic_topology.Topologies.geant_like () in
  let path = Filename.temp_file "ic_topo" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ic_topology.Topo_io.save path g;
      match Ic_topology.Topo_io.load path with
      | Error e -> Alcotest.fail e
      | Ok g' ->
          Alcotest.(check int) "nodes" (G.node_count g) (G.node_count g');
          Alcotest.(check int) "edges" (G.edge_count g) (G.edge_count g');
          Alcotest.(check bool) "connected" true (G.is_connected g'))

(* A random connected backbone: a spanning tree (each node attached to a
   uniformly chosen earlier one) plus random extra links until the average
   undirected degree is reached. *)
let random_mesh rng ~n ~avg_degree =
  let g = ref (G.create ~names:(Array.init n (Printf.sprintf "pop%d"))) in
  for v = 1 to n - 1 do
    g := G.add_link !g (Ic_prng.Rng.int rng v) v
  done;
  let target_links =
    int_of_float (Float.round (avg_degree *. float_of_int n /. 2.))
  in
  let attempts = ref 0 in
  while G.edge_count !g / 2 < target_links && !attempts < 50 * n do
    incr attempts;
    let u = Ic_prng.Rng.int rng n and v = Ic_prng.Rng.int rng n in
    if u <> v && Option.is_none (G.find_edge !g ~src:u ~dst:v) then
      g := G.add_link !g u v
  done;
  !g

let topo_roundtrip_property =
  QCheck.Test.make ~count:30 ~name:"random meshes round-trip through files"
    QCheck.(pair (int_range 2 20) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Ic_prng.Rng.create seed in
      let g = random_mesh rng ~n ~avg_degree:2.5 in
      let path = Filename.temp_file "ic_topo_prop" ".txt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Ic_topology.Topo_io.save path g;
          match Ic_topology.Topo_io.load path with
          | Error _ -> false
          | Ok g' ->
              G.node_count g = G.node_count g'
              && G.edge_count g = G.edge_count g'
              && List.for_all
                   (fun (e : G.edge) ->
                     match G.find_edge g' ~src:e.src ~dst:e.dst with
                     | Some e' -> Float.abs (e'.weight -. e.weight) < 1e-9
                     | None -> false)
                   (G.edges g)))

(* --- Snmp --- *)

let test_snmp_ideal_identity () =
  let loads = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let out =
    Ic_topology.Snmp.measure_series Ic_topology.Snmp.ideal
      (Ic_prng.Rng.create 1) loads
  in
  Alcotest.(check bool) "identity" true
    (out.(0) = loads.(0) && out.(1) = loads.(1))

let test_snmp_noise_unbiased () =
  let spec = { Ic_topology.Snmp.noise_sigma = 0.05; loss_rate = 0. } in
  let loads = Array.make 2000 [| 100. |] in
  let out =
    Ic_topology.Snmp.measure_series spec (Ic_prng.Rng.create 2) loads
  in
  let mean =
    Array.fold_left (fun acc v -> acc +. v.(0)) 0. out /. 2000.
  in
  feq_tol 0.5 "mean preserved" 100. mean;
  Alcotest.(check bool) "noise present" true
    (Array.exists (fun v -> Float.abs (v.(0) -. 100.) > 1.) out)

let test_snmp_loss_imputes () =
  (* with certain loss after the first bin, every bin repeats bin 0 *)
  let spec = { Ic_topology.Snmp.noise_sigma = 0.; loss_rate = 0.99 } in
  let loads = Array.init 50 (fun k -> [| float_of_int k +. 1. |]) in
  let out =
    Ic_topology.Snmp.measure_series spec (Ic_prng.Rng.create 3) loads
  in
  (* most measurements should be stale copies, i.e. not equal to the truth *)
  let stale = ref 0 in
  Array.iteri
    (fun k v -> if k > 0 && v.(0) <> loads.(k).(0) then incr stale)
    out;
  Alcotest.(check bool) "mostly stale" true (!stale > 40)

let test_snmp_validation () =
  Alcotest.check_raises "bad loss" (Invalid_argument "Snmp: loss rate out of [0,1)")
    (fun () ->
      ignore
        (Ic_topology.Snmp.measure_series
           { Ic_topology.Snmp.noise_sigma = 0.; loss_rate = 1. }
           (Ic_prng.Rng.create 4) [| [| 1. |] |]))

let () =
  Alcotest.run "ic_topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "errors" `Quick test_graph_errors;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "line" `Quick test_dijkstra_line;
          Alcotest.test_case "weights" `Quick test_dijkstra_weights;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "shortest-path edges" `Quick
            test_shortest_path_edges;
        ] );
      ( "routing",
        [
          Alcotest.test_case "ecmp split" `Quick test_routing_ecmp_split;
          Alcotest.test_case "conservation" `Quick test_routing_conservation;
          Alcotest.test_case "marginal rows" `Quick test_routing_marginals;
          Alcotest.test_case "marginal errors" `Quick
            test_routing_no_marginals_errors;
          Alcotest.test_case "manual link loads" `Quick test_link_loads_manual;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "builtin" `Quick test_builtin_topologies;
          Alcotest.test_case "star" `Quick test_star;
        ] );
      ( "topo_io",
        [
          Alcotest.test_case "parse" `Quick test_topo_parse;
          Alcotest.test_case "parse errors" `Quick test_topo_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_topo_roundtrip;
          QCheck_alcotest.to_alcotest topo_roundtrip_property;
        ] );
      ( "snmp",
        [
          Alcotest.test_case "ideal identity" `Quick test_snmp_ideal_identity;
          Alcotest.test_case "unbiased noise" `Quick test_snmp_noise_unbiased;
          Alcotest.test_case "loss imputation" `Quick test_snmp_loss_imputes;
          Alcotest.test_case "validation" `Quick test_snmp_validation;
        ] );
    ]
