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
}

let query_kinds = [ "latest_tm"; "metrics"; "od_flow"; "ping"; "topology"; "whatif" ]

let create ?(tracer = Trace.noop) ?(clock = Ic_obs.Clock.now) ?registry
    sources =
  if sources = [] then invalid_arg "Handler.create: no sources";
  let registry = match registry with Some r -> r | None -> Metrics.create () in
  (* Pre-register the full query taxonomy at 0 so GET /metrics exposes a
     stable set of series from the first scrape, not one that grows as
     query kinds happen to arrive. *)
  List.iter
    (fun kind ->
      ignore
        (Metrics.counter registry
           ~help:(Printf.sprintf "%s queries answered" kind)
           ("serve.query." ^ kind)))
    query_kinds;
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

let note_query t kind = Metrics.inc (Metrics.counter t.registry ("serve.query." ^ kind))

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
              Wire.Tm { bin; level; n = Tm.size tm; values = Tm.to_vector tm }
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
                let routing = Source.routing src in
                let x = Tm.to_vector tm in
                for k = 0 to Array.length x - 1 do
                  x.(k) <- x.(k) *. scale
                done;
                let all = Routing.link_loads routing x in
                let links = Graph.edge_count (Source.graph src) in
                Wire.Whatif_load { bin; scale; loads = Array.sub all 0 links }
          end
    end

let handle t req =
  let kind = Wire.request_kind req in
  Metrics.inc t.requests;
  note_query t kind;
  Trace.stage t.tracer ~attrs:[ ("type", kind) ] "serve.request" ~clock:t.clock
    t.duration (fun () -> answer t req)

let metrics_body t =
  Metrics.inc t.requests;
  note_query t "metrics";
  Metrics.expose t.registry
