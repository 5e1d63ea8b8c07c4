module Metrics = Ic_obs.Metrics
module Trace = Ic_obs.Trace
module Routing = Ic_topology.Routing
module Graph = Ic_topology.Graph
module Tm = Ic_traffic.Tm

type t = {
  sources : (string * Source.t) list;  (* tenant -> source, first is default *)
  registry : Metrics.t;
  tracer : Trace.t;
  clock : unit -> float;
  duration : Metrics.histogram;
  requests : Metrics.counter;
  malformed : Metrics.counter;
  timeouts : Metrics.counter;
  connections : Metrics.counter;
  shed_connection : Metrics.counter;
  shed_request : Metrics.counter;
  (* serve.query.<kind>, resolved once *)
  q_latest_tm : Metrics.counter;
  q_metrics : Metrics.counter;
  q_od_flow : Metrics.counter;
  q_ping : Metrics.counter;
  q_topology : Metrics.counter;
  q_whatif : Metrics.counter;
}

let create ?(tracer = Trace.noop) ?(clock = Ic_obs.Clock.now) ?registry
    sources =
  if sources = [] then invalid_arg "Handler.create: no sources";
  let registry = match registry with Some r -> r | None -> Metrics.create () in
  (* Pre-register the full query taxonomy at 0 so GET /metrics exposes a
     stable set of series from the first scrape, not one that grows as
     query kinds happen to arrive. *)
  let query kind =
    Metrics.counter registry
      ~help:(Printf.sprintf "%s queries answered" kind)
      ("serve.query." ^ kind)
  in
  let q_latest_tm = query "latest_tm" in
  let q_metrics = query "metrics" in
  let q_od_flow = query "od_flow" in
  let q_ping = query "ping" in
  let q_topology = query "topology" in
  let q_whatif = query "whatif" in
  {
    sources;
    registry;
    tracer;
    clock;
    duration =
      Metrics.histogram registry
        ~help:"wall-clock duration of one served request"
        "serve_request_duration_ns";
    requests =
      Metrics.counter registry ~help:"requests received (any protocol)"
        "serve.requests";
    malformed =
      Metrics.counter registry ~help:"requests rejected as malformed"
        "serve.malformed";
    timeouts =
      Metrics.counter registry ~help:"connections dropped on read timeout"
        "serve.timeout";
    connections =
      Metrics.counter registry ~help:"connections accepted" "serve.connections";
    shed_connection =
      Metrics.counter registry
        ~help:"connections shed at admission (accept queue full)"
        "serve.shed.connection";
    shed_request =
      Metrics.counter registry
        ~help:"requests shed at the per-connection inflight cap"
        "serve.shed.request";
    q_latest_tm;
    q_metrics;
    q_od_flow;
    q_ping;
    q_topology;
    q_whatif;
  }

let registry t = t.registry

let note_shed t scope =
  Metrics.inc
    (match scope with
    | Wire.Connection -> t.shed_connection
    | Wire.Request -> t.shed_request)

let note_malformed t = Metrics.inc t.malformed
let note_timeout t = Metrics.inc t.timeouts
let note_connection t = Metrics.inc t.connections

let counters t = Metrics.counters t.registry

let find_source t tenant =
  if tenant = "" then Some (snd (List.hd t.sources))
  else List.assoc_opt tenant t.sources

let err code message = Wire.Error { code; message }

let answer t req =
  match req with
  | Wire.Ping token -> Wire.Pong token
  | Wire.Latest_tm { tenant } -> begin
      match find_source t tenant with
      | None -> err Wire.Unknown_tenant tenant
      | Some src -> begin
          match Source.latest src with
          | None -> err Wire.No_estimate "no bin published yet"
          | Some { bin; level; tm } ->
              (* The published TM is shared, never mutated: answer with
                 its array rather than a copy. *)
              Wire.Tm { bin; level; n = Tm.size tm; values = Tm.unsafe_data tm }
        end
    end
  | Wire.Od_flow { tenant; src = i; dst = j } -> begin
      match find_source t tenant with
      | None -> err Wire.Unknown_tenant tenant
      | Some src -> begin
          match Source.latest src with
          | None -> err Wire.No_estimate "no bin published yet"
          | Some { bin; level; tm } ->
              let n = Tm.size tm in
              if i >= n || j >= n then
                err Wire.Bad_od (Printf.sprintf "od (%d,%d) outside %dx%d" i j n n)
              else Wire.Flow { bin; level; value = Tm.get tm i j }
        end
    end
  | Wire.Topology { tenant } -> begin
      match find_source t tenant with
      | None -> err Wire.Unknown_tenant tenant
      | Some src ->
          let g = Source.graph src in
          let nodes =
            Array.init (Graph.node_count g) (fun i -> Graph.name g i)
          in
          Wire.Topology_info { nodes; links = Graph.edge_count g }
    end
  | Wire.Whatif { tenant; scale } -> begin
      if not (Float.is_finite scale) || scale < 0. then
        err Wire.Bad_request "whatif scale must be finite and non-negative"
      else
        match find_source t tenant with
        | None -> err Wire.Unknown_tenant tenant
        | Some src -> begin
            match Source.latest src with
            | None -> err Wire.No_estimate "no bin published yet"
            | Some { bin; level = _; tm } ->
                (* The physical-link rows of R (scale x), read straight
                   from the published TM. *)
                let loads =
                  Ic_linalg.Sparse.mulv_scaled (Source.routing src).Routing.matrix
                    ~rows:(Graph.edge_count (Source.graph src))
                    ~scale (Tm.unsafe_data tm)
                in
                Wire.Whatif_load { bin; scale; loads }
          end
    end

let query_counter t = function
  | Wire.Ping _ -> t.q_ping
  | Wire.Latest_tm _ -> t.q_latest_tm
  | Wire.Od_flow _ -> t.q_od_flow
  | Wire.Topology _ -> t.q_topology
  | Wire.Whatif _ -> t.q_whatif

(* Constant lists, so a request allocates no attributes. Each [type] is
   the kind's [Wire.request_kind]. *)
let query_attrs = function
  | Wire.Ping _ -> [ ("type", "ping") ]
  | Wire.Latest_tm _ -> [ ("type", "latest_tm") ]
  | Wire.Od_flow _ -> [ ("type", "od_flow") ]
  | Wire.Topology _ -> [ ("type", "topology") ]
  | Wire.Whatif _ -> [ ("type", "whatif") ]

let handle t req =
  Metrics.inc t.requests;
  Metrics.inc (query_counter t req);
  Trace.stage t.tracer ~attrs:(query_attrs req) "serve.request" ~clock:t.clock
    t.duration (fun () -> answer t req)

let metrics_body t =
  Metrics.inc t.requests;
  Metrics.inc t.q_metrics;
  Metrics.expose t.registry
