type t = { graph : Graph.t; matrix : Ic_linalg.Sparse.t; with_marginals : bool }

let od_index ~n i j = (i * n) + j

(* Fraction of the OD pair (src,dst)'s traffic on each edge under per-hop
   equal (ECMP) splitting: propagate node shares through the shortest-path
   DAG in increasing distance-from-src order. *)
let ecmp_fractions g dist ~src ~dst =
  let dag = Dijkstra.shortest_path_edges g dist ~src ~dst in
  let out_by_node = Hashtbl.create 16 in
  List.iter
    (fun (e : Graph.edge) ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt out_by_node e.src)
      in
      Hashtbl.replace out_by_node e.src (e :: existing))
    dag;
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun (e : Graph.edge) -> [ e.src; e.dst ]) dag)
  in
  let ordered =
    List.sort (fun u v -> compare dist.(src).(u) dist.(src).(v)) nodes
  in
  let node_share = Hashtbl.create 16 in
  Hashtbl.replace node_share src 1.;
  let edge_share = Hashtbl.create 16 in
  List.iter
    (fun u ->
      match Hashtbl.find_opt node_share u with
      | None -> ()
      | Some share when u <> dst ->
          let outs = Option.value ~default:[] (Hashtbl.find_opt out_by_node u) in
          let k = List.length outs in
          if k > 0 then begin
            let per_edge = share /. float_of_int k in
            List.iter
              (fun (e : Graph.edge) ->
                Hashtbl.replace edge_share e.id per_edge;
                let prev =
                  Option.value ~default:0. (Hashtbl.find_opt node_share e.dst)
                in
                Hashtbl.replace node_share e.dst (prev +. per_edge))
              outs
          end
      | Some _ -> ())
    ordered;
  edge_share

(* Shared core: route over [routed] but emit rows in the indexing of the
   graph the routing is published for. [edge_row] maps a [routed] edge id to
   its output row; [edge_rows] is the number of physical-edge rows in the
   output (rows not in the image of [edge_row] stay structurally empty, which
   is how a failed link reports zero load without changing any dimension). *)
let build_on ~with_marginals ~caller ~graph ~routed ~edge_row ~edge_rows =
  let n = Graph.node_count routed in
  let dist = Dijkstra.all_pairs routed in
  let triplets = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        if dist.(src).(dst) = infinity then
          invalid_arg
            (Printf.sprintf "Routing.%s: no route from %s to %s" caller
               (Graph.name routed src) (Graph.name routed dst));
        let col = od_index ~n src dst in
        let shares = ecmp_fractions routed dist ~src ~dst in
        Hashtbl.iter
          (fun edge_id share ->
            triplets := (edge_row edge_id, col, share) :: !triplets)
          shares
      end
    done
  done;
  if with_marginals then
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        (* ingress row for node i covers every OD pair originating at i *)
        triplets := (edge_rows + i, od_index ~n i j, 1.) :: !triplets;
        (* egress row for node i covers every OD pair terminating at i *)
        triplets := (edge_rows + n + i, od_index ~n j i, 1.) :: !triplets
      done
    done;
  let rows = if with_marginals then edge_rows + (2 * n) else edge_rows in
  {
    graph;
    matrix = Ic_linalg.Sparse.of_triplets ~rows ~cols:(n * n) !triplets;
    with_marginals;
  }

let build ?(with_marginals = true) g =
  build_on ~with_marginals ~caller:"build" ~graph:g ~routed:g ~edge_row:Fun.id
    ~edge_rows:(Graph.edge_count g)

let rebuild ?(down = []) ?(reweight = []) t =
  let g = t.graph in
  let m = Graph.edge_count g in
  let check_id caller id =
    if id < 0 || id >= m then
      invalid_arg (Printf.sprintf "Routing.rebuild: %s edge id %d out of range"
                     caller id)
  in
  List.iter (check_id "down") down;
  List.iter
    (fun (id, w) ->
      check_id "reweight" id;
      if not (w > 0. && Float.is_finite w) then
        invalid_arg
          (Printf.sprintf "Routing.rebuild: reweight of edge %d to %g" id w))
    reweight;
  let is_down = Array.make m false in
  List.iter (fun id -> is_down.(id) <- true) down;
  let new_weight = Array.make m nan in
  List.iter (fun (id, w) -> new_weight.(id) <- w) reweight;
  (* Reduced graph: surviving edges re-added in original id order, so the
     reduced id order matches [surviving] below. *)
  let names = Array.init (Graph.node_count g) (Graph.name g) in
  let routed = ref (Graph.create ~names) in
  let surviving = ref [] in
  List.iter
    (fun (e : Graph.edge) ->
      if not is_down.(e.id) then begin
        let weight =
          if Float.is_nan new_weight.(e.id) then e.weight else new_weight.(e.id)
        in
        routed := Graph.add_edge ~weight ~capacity:e.capacity !routed e.src e.dst;
        surviving := e.id :: !surviving
      end)
    (Graph.edges g);
  let surviving = Array.of_list (List.rev !surviving) in
  if not (Graph.is_connected !routed) then
    invalid_arg
      (Printf.sprintf
         "Routing.rebuild: taking %d link(s) down disconnects the graph"
         (List.length down));
  build_on ~with_marginals:t.with_marginals ~caller:"rebuild" ~graph:g
    ~routed:!routed
    ~edge_row:(fun rid -> surviving.(rid))
    ~edge_rows:m

let link_loads t x = Ic_linalg.Sparse.mulv t.matrix x

let row_count t = Ic_linalg.Sparse.rows t.matrix

let od_count t = Ic_linalg.Sparse.cols t.matrix

let require_marginals t name =
  if not t.with_marginals then
    invalid_arg (Printf.sprintf "Routing.%s: built without marginal rows" name)

let ingress_row t i =
  require_marginals t "ingress_row";
  Graph.edge_count t.graph + i

let egress_row t i =
  require_marginals t "egress_row";
  Graph.edge_count t.graph + Graph.node_count t.graph + i
