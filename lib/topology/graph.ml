type edge = { id : int; src : int; dst : int; weight : float; capacity : float }

type t = {
  names : string array;
  edges_rev : edge list;  (* most recent first *)
  edge_count : int;
  adjacency : edge list array;  (* out-edges per node, most recent first *)
}

let create ~names =
  {
    names = Array.copy names;
    edges_rev = [];
    edge_count = 0;
    adjacency = Array.make (Array.length names) [];
  }

let node_count g = Array.length g.names

let edge_count g = g.edge_count

let check_node g u name =
  if u < 0 || u >= node_count g then
    invalid_arg (Printf.sprintf "Graph.%s: node %d out of range" name u)

let find_edge g ~src ~dst =
  check_node g src "find_edge";
  check_node g dst "find_edge";
  List.find_opt (fun e -> e.dst = dst) g.adjacency.(src)

let add_edge ?(weight = 1.) ?(capacity = 1e9) g u v =
  check_node g u "add_edge";
  check_node g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if weight <= 0. then invalid_arg "Graph.add_edge: weight must be positive";
  if Option.is_some (find_edge g ~src:u ~dst:v) then
    invalid_arg (Printf.sprintf "Graph.add_edge: duplicate edge %d -> %d" u v);
  let e = { id = g.edge_count; src = u; dst = v; weight; capacity } in
  let adjacency = Array.copy g.adjacency in
  adjacency.(u) <- e :: adjacency.(u);
  { g with edges_rev = e :: g.edges_rev; edge_count = g.edge_count + 1; adjacency }

let add_link ?weight ?capacity g u v =
  add_edge ?weight ?capacity (add_edge ?weight ?capacity g u v) v u

let name g i =
  check_node g i "name";
  g.names.(i)

let index_of_name g s =
  let found = ref None in
  Array.iteri (fun i n -> if n = s && !found = None then found := Some i) g.names;
  !found

let edges g = List.rev g.edges_rev

let edge g id =
  if id < 0 || id >= g.edge_count then invalid_arg "Graph.edge: bad id";
  List.nth g.edges_rev (g.edge_count - 1 - id)

let out_edges g u =
  check_node g u "out_edges";
  List.rev g.adjacency.(u)

let is_connected g =
  let n = node_count g in
  if n <= 1 then true
  else begin
    let seen = Array.make n false in
    let undirected = Array.make n [] in
    List.iter
      (fun e ->
        undirected.(e.src) <- e.dst :: undirected.(e.src);
        undirected.(e.dst) <- e.src :: undirected.(e.dst))
      g.edges_rev;
    let rec visit u =
      if not seen.(u) then begin
        seen.(u) <- true;
        List.iter visit undirected.(u)
      end
    in
    visit 0;
    Array.for_all (fun b -> b) seen
  end

