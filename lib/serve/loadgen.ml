module Openloop = Ic_runtime.Feed.Openloop
module Rng = Ic_prng.Rng

type config = {
  listen : Server.listen;
  queries : int;
  rate : float;
  connections : int;
  seed : int;
  json : bool;
  paced : bool;
  mix : (string * float) list;
  cdf : Openloop.cdf;
  tenant : string;
}

let default_mix =
  [
    ("ping", 0.10);
    ("latest_tm", 0.35);
    ("od_flow", 0.35);
    ("topology", 0.05);
    ("whatif", 0.15);
  ]

let default_config listen =
  {
    listen;
    queries = 1000;
    rate = 10_000.;
    connections = 2;
    seed = 42;
    json = false;
    paced = false;
    mix = default_mix;
    cdf = Openloop.dctcp;
    tenant = "";
  }

type outcome = {
  sent : int;
  answered : (string * int) list;  (* response kind -> count, sorted *)
  shed : int;
  errors : int;
  transport_failures : int;
  elapsed_s : float;
  latencies_us : float array;  (* sorted ascending *)
}

let qps o = if o.elapsed_s > 0. then float_of_int o.sent /. o.elapsed_s else 0.

let percentile o p =
  let n = Array.length o.latencies_us in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    o.latencies_us.(max 0 (min (n - 1) (rank - 1)))
  end

(* One timed request/response exchange on an open connection. *)
let exchange ~json ~max_frame fd reader req =
  let payload =
    if json then Wire.json_of_request req ^ "\n" else Wire.encode_request req
  in
  let t0 = Ic_obs.Clock.now () in
  let elapsed_us () = (Ic_obs.Clock.now () -. t0) *. 1e6 in
  match Wire.write_all fd payload with
  | exception Unix.Unix_error _ -> Result.error `Transport
  | () -> (
      match Wire.read_response ~max_frame reader with
      | `Response resp -> Result.ok (Wire.response_kind resp, elapsed_us ())
      | `Json kind -> Result.ok (kind, elapsed_us ())
      | `Closed | `Timed_out -> Result.error `Transport
      | `Malformed _ -> Result.error `Malformed)

let probe_topology config =
  let fd = Server.connect config.listen in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      Wire.write_all fd
        (Wire.encode_request (Wire.Topology { tenant = config.tenant }));
      match Wire.read_response (Wire.reader fd) with
      | `Response (Wire.Topology_info { nodes; links }) ->
          (Array.length nodes, links)
      | `Response (Wire.Error { message; _ }) ->
          failwith ("loadgen probe refused: " ^ message)
      | _ -> failwith "loadgen probe: unexpected response")

(* The request sequence is a pure function of (seed, n, mix, cdf, rate):
   arrival gaps and flow sizes come from the schedule's split substreams,
   kind/OD draws from the consumer substream, all derived before any
   socket I/O so thread interleaving cannot perturb them. *)
let build_requests config ~n =
  let events =
    Openloop.arrivals ~cdf:config.cdf ~rate:config.rate ~count:config.queries
      ~seed:config.seed ()
  in
  let rng = Openloop.consumer_stream config.seed in
  let total_weight = List.fold_left (fun a (_, w) -> a +. w) 0. config.mix in
  if total_weight <= 0. then invalid_arg "Loadgen: query mix has no weight";
  let mean = Openloop.mean_size config.cdf in
  let pick_kind () =
    let u = Rng.float rng *. total_weight in
    let rec go acc = function
      | [] -> fst (List.hd config.mix)
      | (kind, w) :: rest ->
          if u < acc +. w then kind else go (acc +. w) rest
    in
    go 0. config.mix
  in
  Array.map
    (fun (ev : Openloop.event) ->
      let req =
        match pick_kind () with
        | "ping" -> Wire.Ping (Rng.bits64 rng)
        | "latest_tm" -> Wire.Latest_tm { tenant = config.tenant }
        | "topology" -> Wire.Topology { tenant = config.tenant }
        | "od_flow" ->
            let src = Rng.int rng n in
            let dst = Rng.int rng n in
            Wire.Od_flow { tenant = config.tenant; src; dst }
        | "whatif" | _ ->
            (* Scaled-load reprovisioning probe: the drawn flow size against
               the mix's mean maps the size CDF onto a scale factor. *)
            let scale = Float.min 100. (ev.Openloop.size /. mean) in
            Wire.Whatif { tenant = config.tenant; scale }
      in
      (ev.Openloop.time, req))
    events

type worker_tally = {
  mutable w_sent : int;
  mutable w_shed : int;
  mutable w_errors : int;
  mutable w_transport : int;
  kinds : (string, int) Hashtbl.t;
  mutable lats : float list;
}

let run_worker config ~t0 requests =
  let tally =
    {
      w_sent = 0;
      w_shed = 0;
      w_errors = 0;
      w_transport = 0;
      kinds = Hashtbl.create 8;
      lats = [];
    }
  in
  let fd = Server.connect config.listen in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
  let reader = Wire.reader fd in
  Array.iter
    (fun (due, req) ->
      (if config.paced then
         let ahead = t0 +. due -. Ic_obs.Clock.now () in
         if ahead > 2e-4 then Unix.sleepf ahead);
      tally.w_sent <- tally.w_sent + 1;
      match exchange ~json:config.json ~max_frame:Wire.default_max_frame fd reader req with
      | Ok (kind, lat_us) ->
          Hashtbl.replace tally.kinds kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally.kinds kind));
          tally.lats <- lat_us :: tally.lats;
          if kind = "shed" then tally.w_shed <- tally.w_shed + 1;
          if kind = "error" then tally.w_errors <- tally.w_errors + 1
      | Error `Malformed -> tally.w_errors <- tally.w_errors + 1
      | Error `Transport -> tally.w_transport <- tally.w_transport + 1)
    requests;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  tally

let run ?probe config =
  if config.queries < 0 then invalid_arg "Loadgen: negative query count";
  if config.connections < 1 then invalid_arg "Loadgen: connections must be >= 1";
  if not (config.rate > 0.) then invalid_arg "Loadgen: rate must be positive";
  let n, _links =
    match probe with Some n -> (n, 0) | None -> probe_topology config
  in
  let requests = build_requests config ~n in
  let shards =
    (* Round-robin in arrival order: each connection's subsequence is still
       time-ordered, so pacing per worker needs no cross-thread clock. *)
    Array.init config.connections (fun k ->
        let mine = ref [] in
        Array.iteri
          (fun i ev -> if i mod config.connections = k then mine := ev :: !mine)
          requests;
        Array.of_list (List.rev !mine))
  in
  let t_start = Ic_obs.Clock.now () in
  let tallies =
    Array.map Domain.join
      (Array.map
         (fun shard -> Domain.spawn (fun () -> run_worker config ~t0:t_start shard))
         shards)
  in
  let elapsed_s = Ic_obs.Clock.now () -. t_start in
  let kinds = Hashtbl.create 8 in
  let lats = ref [] in
  let sent = ref 0 and shed = ref 0 and errors = ref 0 and transport = ref 0 in
  Array.iter
    (fun t ->
      sent := !sent + t.w_sent;
      shed := !shed + t.w_shed;
      errors := !errors + t.w_errors;
      transport := !transport + t.w_transport;
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace kinds k (v + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
        t.kinds;
      lats := List.rev_append t.lats !lats)
    tallies;
  let latencies_us = Array.of_list !lats in
  Array.sort compare latencies_us;
  {
    sent = !sent;
    answered =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
      |> List.sort compare;
    shed = !shed;
    errors = !errors;
    transport_failures = !transport;
    elapsed_s;
    latencies_us;
  }

let report ?(timings = true) o =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "sent      %d\n" o.sent);
  List.iter
    (fun (kind, count) ->
      Buffer.add_string buf (Printf.sprintf "  %-8s %d\n" kind count))
    o.answered;
  Buffer.add_string buf (Printf.sprintf "shed      %d\n" o.shed);
  Buffer.add_string buf (Printf.sprintf "errors    %d\n" o.errors);
  Buffer.add_string buf (Printf.sprintf "transport %d\n" o.transport_failures);
  if timings then begin
    Buffer.add_string buf (Printf.sprintf "qps       %.0f\n" (qps o));
    Buffer.add_string buf
      (Printf.sprintf "p50_us    %.0f\n" (percentile o 50.));
    Buffer.add_string buf
      (Printf.sprintf "p99_us    %.0f\n" (percentile o 99.))
  end;
  Buffer.contents buf
