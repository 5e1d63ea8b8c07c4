module Vec = Ic_linalg.Vec
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Graph = Ic_topology.Graph
module Routing = Ic_topology.Routing
module Rng = Ic_prng.Rng

type injected = {
  kind : string;
  target : string;
  at : int;
  duration : int;
  description : string;
  labels : (int * int * int) list;
}

type epoch = { from_bin : int; routing : Routing.t; description : string }

type t = {
  graph : Graph.t;
  series : Series.t;
  label_floor : float;
  labels : (int * int * int) list;
  injected : injected list;
  epochs : epoch array;
  topo_notes : (int * string) list;
  loads : Vec.t array;
}

let base_routing t = t.epochs.(0).routing

let bins t = Series.length t.series

let median xs =
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0.
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

let node graph name' =
  match Graph.index_of_name graph name' with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Scenario: unknown node %s" name')

(* Both directed edge ids of the physical link a-b. *)
let link_edges graph a b =
  let u = node graph a and v = node graph b in
  let ids =
    List.filter_map
      (fun (s, d) ->
        Option.map
          (fun (e : Graph.edge) -> e.id)
          (Graph.find_edge graph ~src:s ~dst:d))
      [ (u, v); (v, u) ]
  in
  if ids = [] then
    invalid_arg (Printf.sprintf "Scenario: no link %s-%s in the topology" a b);
  ids

(* --- anomaly injection -------------------------------------------------- *)

(* Overlay one anomaly onto the (mutable copies of the) truth TMs.
   [rng] is the event's own split substream; volumes are sized against the
   base process's median bin total so magnitudes are topology-portable.
   Returns the injected record with its ground-truth labels: every (bin,
   origin, destination) whose injected excess exceeds [floor] — the same
   materiality floor the detector is scored with. Outages produce no
   labels: the detector is one-sided by design (excess only). *)
let inject ~graph ~tms ~floor ~mean_od ~rng event =
  let bins = Array.length tms in
  let n = Graph.node_count graph in
  let clip_window at duration =
    (at, min bins (at + duration))
  in
  match (event : Schedule.event) with
  | Schedule.Ddos { victim; at; duration; magnitude } ->
      let v = node graph victim in
      let k = min 3 (n - 1) in
      let attackers = ref [] in
      while List.length !attackers < k do
        let a = Rng.int rng n in
        if a <> v && not (List.mem a !attackers) then
          attackers := !attackers @ [ a ]
      done;
      let amount = magnitude *. mean_od in
      let lo, hi = clip_window at duration in
      let labels = ref [] in
      for t = lo to hi - 1 do
        List.iter
          (fun a ->
            Tm.add_to tms.(t) a v amount;
            if amount > floor then labels := (t, a, v) :: !labels)
          !attackers
      done;
      Some
        {
          kind = "ddos";
          target = victim;
          at;
          duration;
          description = Schedule.describe event;
          labels = List.rev !labels;
        }
  | Schedule.Flash_crowd { node = name'; at; duration; boost } ->
      let v = node graph name' in
      let lo, hi = clip_window at duration in
      let labels = ref [] in
      for t = lo to hi - 1 do
        for i = 0 to n - 1 do
          if i <> v then begin
            let x = Tm.get tms.(t) i v in
            Tm.set tms.(t) i v (x *. boost);
            if (boost -. 1.) *. x > floor then labels := (t, i, v) :: !labels
          end
        done
      done;
      Some
        {
          kind = "flash-crowd";
          target = name';
          at;
          duration;
          description = Schedule.describe event;
          labels = List.rev !labels;
        }
  | Schedule.Outage { node = name'; at; duration } ->
      let v = node graph name' in
      let lo, hi = clip_window at duration in
      for t = lo to hi - 1 do
        for j = 0 to n - 1 do
          if j <> v then begin
            Tm.set tms.(t) v j (0.02 *. Tm.get tms.(t) v j);
            Tm.set tms.(t) j v (0.02 *. Tm.get tms.(t) j v)
          end
        done
      done;
      Some
        {
          kind = "outage";
          target = name';
          at;
          duration;
          description = Schedule.describe event;
          labels = [];
        }
  | Schedule.Link_fail _ | Schedule.Reweight _ -> None

(* --- topology epochs ---------------------------------------------------- *)

type topo_change = {
  c_at : int;
  c_end : int option;  (* exclusive recovery bin; None = permanent *)
  c_ids : int list;
  c_weight : float option;  (* Some w = reweight, None = failure *)
  c_label : string;  (* "a-b" *)
}

let topo_changes graph events =
  List.filter_map
    (fun (e : Schedule.event) ->
      match e with
      | Schedule.Link_fail { a; b; at; duration } ->
          Some
            {
              c_at = at;
              c_end = Option.map (fun d -> at + d) duration;
              c_ids = link_edges graph a b;
              c_weight = None;
              c_label = a ^ "-" ^ b;
            }
      | Schedule.Reweight { a; b; at; weight } ->
          Some
            {
              c_at = at;
              c_end = None;
              c_ids = link_edges graph a b;
              c_weight = Some weight;
              c_label = a ^ "-" ^ b;
            }
      | _ -> None)
    events

let epochs_of ~graph ~bins changes =
  let boundaries =
    List.sort_uniq compare
      (0
      :: List.concat_map
           (fun c ->
             let ends =
               match c.c_end with
               | Some e when e < bins -> [ e ]
               | _ -> []
             in
             c.c_at :: ends)
           changes)
  in
  let base = Routing.build graph in
  let epoch_at b =
    let active =
      List.filter
        (fun c ->
          c.c_at <= b
          && match c.c_end with None -> true | Some e -> b < e)
        changes
    in
    let down =
      List.sort_uniq compare
        (List.concat_map
           (fun c -> if c.c_weight = None then c.c_ids else [])
           active)
    in
    (* Later reweights of the same link override earlier ones (list built
       in schedule order, assoc replaced as we go). *)
    let reweight =
      List.fold_left
        (fun acc c ->
          match c.c_weight with
          | None -> acc
          | Some w ->
              List.filter (fun (id, _) -> not (List.mem id c.c_ids)) acc
              @ List.map (fun id -> (id, w)) c.c_ids)
        [] active
    in
    let failed =
      List.sort_uniq compare
        (List.filter_map
           (fun c -> if c.c_weight = None then Some c.c_label else None)
           active)
    in
    let routing =
      if down = [] && reweight = [] then base
      else
        match Routing.rebuild ~down ~reweight base with
        | r -> r
        | exception Invalid_argument _ ->
            invalid_arg
              (Printf.sprintf
                 "Scenario: taking %s down at bin %d disconnects the topology"
                 (String.concat "," failed) b)
    in
    let description =
      if down = [] && reweight = [] then "nominal topology"
      else begin
        let rw =
          List.sort_uniq compare
            (List.filter_map
               (fun c ->
                 Option.map
                   (fun w -> Printf.sprintf "%s->%g" c.c_label w)
                   c.c_weight)
               active)
        in
        String.concat "; "
          ((if failed = [] then []
            else [ "down: " ^ String.concat "," failed ])
          @ if rw = [] then [] else [ "reweight: " ^ String.concat "," rw ])
      end
    in
    { from_bin = b; routing; description }
  in
  Array.of_list (List.map epoch_at boundaries)

(* After validation a rebuild can only fail on a disconnected residual
   graph, which is what [epochs_of] reports. *)
let epochs ~graph ~bins (schedule : Schedule.t) =
  Schedule.validate ~bins schedule;
  epochs_of ~graph ~bins (topo_changes graph schedule.Schedule.events)

let topo_notes ~bins events =
  let notes =
    List.concat_map
      (fun (e : Schedule.event) ->
        match e with
        | Schedule.Link_fail { a; b; at; duration } ->
            let down =
              (at,
               Printf.sprintf "topology: link %s-%s down (routes recomputed)"
                 a b)
            in
            let up =
              match duration with
              | Some d when at + d < bins ->
                  [ (at + d,
                     Printf.sprintf
                       "topology: link %s-%s restored (routes recomputed)" a b)
                  ]
              | _ -> []
            in
            down :: up
        | Schedule.Reweight { a; b; at; weight } ->
            [ (at,
               Printf.sprintf
                 "topology: link %s-%s reweighted to %g (routes recomputed)" a
                 b weight)
            ]
        | _ -> [])
      events
  in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) notes

(* --- compilation -------------------------------------------------------- *)

let compile ~graph ~base (schedule : Schedule.t) =
  let bins = Series.length base in
  let epochs = epochs ~graph ~bins schedule in
  if Series.size base <> Graph.node_count graph then
    invalid_arg "Timeline.compile: series does not match graph";
  let n = Graph.node_count graph in
  let totals = Series.total_series base in
  let med_total = median totals in
  if med_total <= 0. then
    invalid_arg "Timeline.compile: base series carries no traffic";
  let mean_od = med_total /. float_of_int (n * (n - 1)) in
  let floor = 0.002 *. med_total in
  let tms = Array.init bins (fun t -> Tm.copy (Series.tm base t)) in
  (* One split substream per event, keyed by declaration position, so an
     event's draws do not shift when another event is added or removed. *)
  let root = Rng.create schedule.Schedule.seed in
  let injected =
    List.mapi
      (fun idx e ->
        inject ~graph ~tms ~floor ~mean_od ~rng:(Rng.split root idx) e)
      schedule.Schedule.events
    |> List.filter_map Fun.id
  in
  let series = Series.make base.Series.binning tms in
  let routing_of_bin b =
    let r = ref epochs.(0).routing in
    Array.iter (fun e -> if e.from_bin <= b then r := e.routing) epochs;
    !r
  in
  let loads =
    Array.init bins (fun t ->
        Routing.link_loads (routing_of_bin t) (Tm.to_vector tms.(t)))
  in
  {
    graph;
    series;
    label_floor = floor;
    labels = List.concat_map (fun (i : injected) -> i.labels) injected;
    injected;
    epochs;
    topo_notes = topo_notes ~bins schedule.Schedule.events;
    loads;
  }

let routing_at t b =
  if b < 0 || b >= bins t then invalid_arg "Timeline.routing_at: bin range";
  let r = ref t.epochs.(0).routing in
  Array.iter (fun e -> if e.from_bin <= b then r := e.routing) t.epochs;
  !r

(* Epoch boundaries after bin 0: the live topology events the runner must
   apply mid-stream. *)
let boundaries t =
  Array.to_list t.epochs
  |> List.filter_map (fun e ->
         if e.from_bin = 0 then None
         else Some (e.from_bin, e.routing, e.description))
