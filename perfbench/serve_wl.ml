(* The serve-mix workload: `Server` on a Unix socket fronting one published
   22-PoP TM, driven the way `ic-lab serve` runs it (a replay publishes its
   last estimate, then the socket answers). The engine is idle, so Wire,
   Handler and the socket do all the work.

   Closed loop: each connection sends its next query only after the last
   reply, because the plane's callers wait for each reply, and because a
   sleep-paced sender on a 2-CPU host runs tens of microseconds late at the
   median and milliseconds late at p99, so an open loop would measure the
   sender. Worker domains plus client connections stay within the CPU
   count: one worker per connection, nproc / 2 of each.

   The TM comes from the repository's fixed Géant dataset; the seed draws
   the replay's poll noise and the query sequence. *)

module Engine = Ic_runtime.Engine
module Wire = Ic_serve.Wire
module Server = Ic_serve.Server
module Handler = Ic_serve.Handler
module Source = Ic_serve.Source
module Trace = Ic_obs.Trace
module Tm = Ic_traffic.Tm
module Routing = Ic_topology.Routing
module Graph = Ic_topology.Graph
module Rng = Ic_prng.Rng

let sequence_len = 8192
let setup_reps = 25
let segments = 3
let traced_cap = 90_000 (* requests per traced connection, bounds the ring *)
let replay_rounds = 3

type inputs = {
  routing : Routing.t;
  bin : int;
  level : int;
  tm : Tm.t;  (* the published estimate *)
  truth : Tm.t;  (* the dataset's TM for that bin *)
  frames : string array;  (* encoded requests, in sequence order *)
  expected : Wire.response array;
  kind : int array;  (* index into Out.kinds *)
}

let kind_index req =
  let k = Wire.request_kind req in
  let rec go i = function
    | [] -> failwith ("perfbench: unknown request kind " ^ k)
    | x :: rest -> if x = k then i else go (i + 1) rest
  in
  go 0 Out.kinds

(* The answer the published TM implies, built without the Handler. *)
let expected_answer ~routing ~graph ~bin ~level tm = function
  | Wire.Ping token -> Wire.Pong token
  | Wire.Latest_tm _ ->
      Wire.Tm { bin; level; n = Tm.size tm; values = Tm.to_vector tm }
  | Wire.Od_flow { src; dst; _ } ->
      Wire.Flow { bin; level; value = Tm.get tm src dst }
  | Wire.Topology _ ->
      Wire.Topology_info
        {
          nodes = Array.init (Graph.node_count graph) (Graph.name graph);
          links = Graph.edge_count graph;
        }
  | Wire.Whatif { scale; _ } ->
      let x = Tm.to_vector tm in
      Array.iteri (fun k v -> x.(k) <- v *. scale) x;
      let all = Routing.link_loads routing x in
      Wire.Whatif_load
        { bin; scale; loads = Array.sub all 0 (Graph.edge_count graph) }

let make_inputs ~seed =
  let ds = Ic_datasets.Geant.generate ~weeks:1 () in
  let series = ds.Ic_datasets.Dataset.series in
  let routing = Routing.build ds.graph in
  (* One day and one bin of replay, so the published estimate comes after
     the first refit, as a serving host's would. *)
  let bins =
    Ic_timeseries.Timebin.bins_per_day series.Ic_traffic.Series.binning + 1
  in
  let engine =
    Engine.create
      (Engine.default_config routing series.Ic_traffic.Series.binning)
  in
  let res =
    Ic_runtime.Replay.run ~max_bins:bins engine
      (Ic_runtime.Feed.create routing series ~seed)
  in
  let bin = bins - 1 in
  let tm = res.Ic_runtime.Replay.estimates.(bin) in
  let level = Ic_runtime.Degrade.rank res.Ic_runtime.Replay.levels.(bin) in
  let n = Tm.size tm in
  let rng = Rng.create seed in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. Ic_serve.Loadgen.default_mix in
  let pick () =
    let u = Rng.float rng *. total in
    let rec go acc = function
      | [] -> "ping"
      | (k, w) :: rest -> if u < acc +. w then k else go (acc +. w) rest
    in
    go 0. Ic_serve.Loadgen.default_mix
  in
  let requests =
    Array.init sequence_len (fun _ ->
        match pick () with
        | "ping" -> Wire.Ping (Rng.bits64 rng)
        | "latest_tm" -> Wire.Latest_tm { tenant = "" }
        | "od_flow" ->
            let src = Rng.int rng n in
            Wire.Od_flow { tenant = ""; src; dst = Rng.int rng n }
        | "topology" -> Wire.Topology { tenant = "" }
        | _ -> Wire.Whatif { tenant = ""; scale = Rng.float_range rng 0.5 4. })
  in
  {
    routing;
    bin;
    level;
    tm;
    truth = Ic_traffic.Series.tm series bin;
    frames = Array.map Wire.encode_request requests;
    expected =
      Array.map (expected_answer ~routing ~graph:ds.graph ~bin ~level tm) requests;
    kind = Array.map kind_index requests;
  }

(* --- bit-exact answer check ---------------------------------------------- *)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let aeq a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (feq x b.(i)) then ok := false) a;
  !ok

(* Same response kind as expected, and the same bits. *)
let same_answer (expected : Wire.response) (got : Wire.response) =
  match (expected, got) with
  | Pong a, Pong b -> Int64.equal a b
  | Tm a, Tm b -> a.bin = b.bin && a.level = b.level && a.n = b.n && aeq a.values b.values
  | Flow a, Flow b -> a.bin = b.bin && a.level = b.level && feq a.value b.value
  | Topology_info a, Topology_info b -> a.links = b.links && a.nodes = b.nodes
  | Whatif_load a, Whatif_load b ->
      a.bin = b.bin && feq a.scale b.scale && aeq a.loads b.loads
  | _ -> false

(* --- client ----------------------------------------------------------------- *)

(* The client reads whole frames itself, so that its own decode can be
   timed apart from the transport. *)
type conn = { fd : Unix.file_descr; mutable buf : Bytes.t }

let connect listen =
  let fd = Server.connect listen in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
  { fd; buf = Bytes.create 65536 }

let rec read_exact fd buf off len =
  if len > 0 then begin
    let k = Unix.read fd buf off len in
    if k = 0 then raise End_of_file;
    read_exact fd buf (off + k) (len - k)
  end

let read_frame c =
  let h = Wire.header_len in
  read_exact c.fd c.buf 0 h;
  let len = Int32.to_int (Bytes.get_int32_be c.buf (h - 4)) land 0xffff_ffff in
  if h + len > Bytes.length c.buf then begin
    let b = Bytes.create (h + len) in
    Bytes.blit c.buf 0 b 0 h;
    c.buf <- b
  end;
  read_exact c.fd c.buf h len;
  Bytes.sub_string c.buf 0 (h + len)

type tally = {
  rtt : Stat.buf;  (* ns per request, in send order *)
  kinds : Stat.buf;  (* kind index per request *)
  client_decode : Stat.buf;
  mutable sent : int;
  mutable failed : int;
  mutable bytes : float;
}

(* One connection's closed loop over the sequence, starting at [start] and
   striding by the connection count, until [deadline] or [cap] requests. *)
let client_loop ?tracer inputs c ~start ~stride ~deadline ~cap =
  let t =
    {
      rtt = Stat.buf ();
      kinds = Stat.buf ();
      client_decode = Stat.buf ();
      sent = 0;
      failed = 0;
      bytes = 0.;
    }
  in
  let alive = ref true in
  while !alive && t.sent < cap && Calib.now_ns () < deadline do
    let j = (start + (t.sent * stride)) mod sequence_len in
    let exchange () =
      Wire.write_all c.fd inputs.frames.(j);
      let frame = read_frame c in
      let t1 = Calib.now_ns () in
      (frame, t1, Wire.decode_response frame)
    in
    let t0 = Calib.now_ns () in
    (match
       match tracer with
       | None -> exchange ()
       | Some tr -> Trace.with_span tr "bench.rtt" exchange
     with
    | frame, t1, decoded ->
        let t2 = Calib.now_ns () in
        Stat.push t.rtt (t2 -. t0);
        Stat.push t.kinds (float_of_int inputs.kind.(j));
        Stat.push t.client_decode (t2 -. t1);
        t.bytes <- t.bytes +. float_of_int (String.length frame);
        (match decoded with
        | Ok r when same_answer inputs.expected.(j) r -> ()
        | _ -> t.failed <- t.failed + 1)
    | exception (End_of_file | Unix.Unix_error _) ->
        t.failed <- t.failed + 1;
        alive := false);
    t.sent <- t.sent + 1
  done;
  t

(* --- server lifecycle -------------------------------------------------------- *)

(* Server.start, Handler.create and publish, until the first ping is
   answered: the serve set-up time. Returns the live server and the
   connection that carried the ping. *)
let start ?tracer inputs ~listen ~workers =
  let t0 = Calib.now_ns () in
  let source = Source.create inputs.routing in
  Source.publish source ~bin:inputs.bin ~level:inputs.level inputs.tm;
  let handler = Handler.create ?tracer [ ("geant", source) ] in
  let server =
    Server.start { (Server.default_config listen) with Server.workers } handler
  in
  let c = connect listen in
  Wire.write_all c.fd (Wire.encode_request (Wire.Ping 1L));
  let ok =
    match Wire.decode_response (read_frame c) with
    | Ok (Wire.Pong 1L) -> true
    | _ -> false
  in
  (server, handler, c, Calib.now_ns () -. t0, ok)

let shutdown server conns =
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  Server.stop server;
  Server.wait server

(* Run every connection's loop: connection 0 on this domain, the others on
   their own domains. *)
let drive ?tracer inputs conns ~seconds ~cap =
  let deadline = Calib.now_ns () +. (seconds *. 1e9) in
  let stride = List.length conns in
  let loop k c () = client_loop ?tracer inputs c ~start:k ~stride ~deadline ~cap in
  match conns with
  | [] -> []
  | c0 :: rest ->
      let others = List.mapi (fun k c -> Domain.spawn (loop (k + 1) c)) rest in
      let t0 = loop 0 c0 () in
      t0 :: List.map Domain.join others

(* --- summaries --------------------------------------------------------------- *)

(* Serve times are raw wall-clock. A round trip is mostly syscalls and
   cross-domain wake-ups, which the Cholesky kernel does not track
   (normalizing by it widened the quartile spread of qps from 9% to 18% over
   5 seeds), and a benchmark-owned socketpair echo was itself bimodal
   (5.5 or 10 us per round trip, by where the scheduler put its domain).

   Rate and tail are summarized per window of [window] consecutive round
   trips of one connection: the window's rate, and its round trip with
   exactly ten slower ones after it (p99.1); a phase reports the median
   window. Over a whole run the 11th-slowest of ~10^5 round trips is a
   p99.99 that the host's scheduler sets (a few ms, +-35% between runs). *)
let window = 1100

let windows xs =
  List.init (Array.length xs / window) (fun w -> Array.sub xs (w * window) window)

let mix_weight =
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. Ic_serve.Loadgen.default_mix in
  Array.of_list
    (List.map
       (fun k ->
         Option.value ~default:0. (List.assoc_opt k Ic_serve.Loadgen.default_mix)
         /. total)
       Out.kinds)

(* Rate, latency and tail of one set of round trips (one array per
   connection, in send order, with each request's kind index). *)
type summary = {
  qps : float;  (* sum over connections of the median window rate *)
  p50 : float;
      (* us: per-kind median round trip, weighted by the mix. The plain
         median of the mix sits on the edge between the fast kinds (half
         the mix) and what-if, and jumps 30% with the sequence. *)
  p50_all : float;  (* us, plain median *)
  tail : float;  (* us, median window tail *)
  tail_all : float;  (* us, the 11th slowest of the whole phase *)
  kind_rtts : float array array;  (* ns, per kind *)
}

let summarize per_conn kinds =
  let rtts = Array.concat per_conn in
  let win_rate xs = float_of_int window /. (Stat.sum xs /. 1e9) in
  let kind_rtts =
    Array.of_list
      (List.mapi
         (fun k _ ->
           let b = Stat.buf () in
           Array.iteri (fun i x -> if kinds.(i) = k then Stat.push b x) rtts;
           Stat.contents b)
         Out.kinds)
  in
  let weighted = ref 0. in
  Array.iteri
    (fun k xs -> weighted := !weighted +. (mix_weight.(k) *. Stat.median xs))
    kind_rtts;
  {
    qps =
      List.fold_left
        (fun a xs ->
          match windows xs with
          | [] -> a
          | ws -> a +. Stat.median (Array.of_list (List.map win_rate ws)))
        0. per_conn;
    p50 = !weighted /. 1e3;
    p50_all = Stat.median rtts /. 1e3;
    tail =
      Stat.median
        (Array.of_list (List.concat_map (fun xs -> List.map Stat.tail (windows xs)) per_conn))
      /. 1e3;
    tail_all = Stat.tail rtts /. 1e3;
    kind_rtts;
  }

(* One socket phase. *)
type phase = {
  sum : summary;
  kind_counts : int array;
  mean_rtt : float;  (* ns *)
  sent : int;
  failed : int;
  bytes : float;
  client_decode : float;  (* mean ns *)
}

let phase (tallies : tally list) =
  let kinds =
    Array.map int_of_float
      (Array.concat (List.map (fun (t : tally) -> Stat.contents t.kinds) tallies))
  in
  let rtts = List.map (fun (t : tally) -> Stat.contents t.rtt) tallies in
  let sum = summarize rtts kinds in
  {
    sum;
    kind_counts = Array.map Array.length sum.kind_rtts;
    mean_rtt = Stat.mean (Array.concat rtts);
    sent = List.fold_left (fun a (t : tally) -> a + t.sent) 0 tallies;
    failed = List.fold_left (fun a (t : tally) -> a + t.failed) 0 tallies;
    bytes = List.fold_left (fun a (t : tally) -> a +. t.bytes) 0. tallies;
    client_decode =
      Stat.mean
        (Array.concat (List.map (fun (t : tally) -> Stat.contents t.client_decode) tallies));
  }

(* --- in-process split: decode, handle, encode with no socket --------------- *)

(* Per kind, the mean ns of Wire.decode_request, Handler.handle and
   Wire.encode_response over that kind's requests of the sequence. Each
   stage is timed as one batch, because a decode takes about as long as
   two clock reads; the median of [replay_rounds] rounds is kept. *)
let replay handler inputs =
  let by_kind =
    Array.of_list
      (List.mapi
         (fun k _ ->
           Array.of_list
             (List.filter (fun j -> inputs.kind.(j) = k) (List.init sequence_len Fun.id)))
         Out.kinds)
  in
  let time f =
    let t0 = Calib.now_ns () in
    f ();
    Calib.now_ns () -. t0
  in
  let round () =
    Array.map
      (fun js ->
        let n = float_of_int (max 1 (Array.length js)) in
        let reqs = Array.make (Array.length js) (Wire.Ping 0L) in
        let resps = Array.make (Array.length js) (Wire.Pong 0L) in
        let dec =
          time (fun () ->
              Array.iteri
                (fun i j ->
                  match Wire.decode_request inputs.frames.(j) with
                  | Ok r -> reqs.(i) <- r
                  | Error e -> failwith ("perfbench: decode_request: " ^ e))
                js)
        in
        let hdl =
          time (fun () -> Array.iteri (fun i r -> resps.(i) <- Handler.handle handler r) reqs)
        in
        let enc =
          time (fun () ->
              Array.iter (fun r -> ignore (Sys.opaque_identity (Wire.encode_response r))) resps)
        in
        (dec /. n, hdl /. n, enc /. n))
      by_kind
  in
  let rounds = Array.init replay_rounds (fun _ -> round ()) in
  Array.mapi
    (fun k _ ->
      let pick f = Stat.median (Array.map (fun r -> f r.(k)) rounds) in
      (pick (fun (d, _, _) -> d), pick (fun (_, h, _) -> h), pick (fun (_, _, e) -> e)))
    by_kind

(* --- the workload -------------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let t_gen = Calib.now_ns () in
  let inputs = make_inputs ~seed in
  let nproc = Domain.recommended_domain_count () in
  let workers = max 1 (nproc / 2) in
  let connections = workers in
  let listen = Server.Unix_path (Out.scratch_file "sock") in
  Printf.printf
    "workload serve-mix: Server on a Unix socket fronting one published \
     %d-PoP TM (bin %d), closed loop, %d worker domain(s) and %d client \
     connection(s) for nproc %d, Loadgen.default_mix over a %d-request \
     sequence (inputs generated in %.2f s)\n%!"
    (Tm.size inputs.tm) inputs.bin workers connections nproc sequence_len
    ((Calib.now_ns () -. t_gen) /. 1e9);
  let cal = Calib.create ~stride:1 () in
  for i = 0 to 14 do
    Calib.tick cal i
  done;
  (* Set-up, repeated: the last server stays up for the measured loop. *)
  let setups = Array.make setup_reps 0. in
  let setup_failed = ref 0 in
  let rec setup i =
    let server, handler, c, dt, ok = start inputs ~listen ~workers in
    setups.(i) <- dt;
    if not ok then incr setup_failed;
    if i + 1 < setup_reps then begin
      shutdown server [ c ];
      setup (i + 1)
    end
    else (server, handler, c)
  in
  let server, handler, c0 = setup 0 in
  (* The measured loop runs in [segments] parts, each on a freshly started
     server, and the metrics come from the part with the highest rate: where
     the scheduler puts the worker domain moves a part's rate by up to 15%
     for the life of the domain, and a fresh server re-rolls the placement.
     Every part's answers are checked. *)
  let segment ?tracer ?(cap = max_int) (server, c0) =
    let conns = c0 :: List.init (connections - 1) (fun _ -> connect listen) in
    let ph =
      phase
        (drive ?tracer inputs conns
           ~seconds:(seconds /. float_of_int segments)
           ~cap)
    in
    shutdown server conns;
    ph
  in
  let fresh_part ?tracer ?cap () =
    let server, handler, c, _, ok = start ?tracer inputs ~listen ~workers in
    if not ok then incr setup_failed;
    (handler, segment ?tracer ?cap (server, c))
  in
  let best parts =
    List.fold_left
      (fun (h, b) (h', p) -> if p.sum.qps > b.sum.qps then (h', p) else (h, b))
      (List.hd parts) parts
  in
  let first = segment (server, c0) in
  let parts = first :: List.init (segments - 1) (fun _ -> snd (fresh_part ())) in
  let untraced = snd (best (List.map (fun p -> (handler, p)) parts)) in
  let sent = List.fold_left (fun a p -> a + p.sent) 0 parts in
  let answer_failed = List.fold_left (fun a p -> a + p.failed) 0 parts in
  let state_mb = float_of_int (Obj.reachable_words (Obj.repr handler) * 8) /. 1e6 in
  let rel_l2 = Stream_wl.rel_l2 inputs.tm inputs.truth in
  let attempted = sent + setup_reps + segments - 1 in
  let failed = answer_failed + !setup_failed in
  let u = untraced.sum in
  Printf.printf
    "record: %d queries answered in %d parts of the measured loop (%s q/s), \
     calibration kernel raw median %.1f us (15 samples before the loop; \
     serve times are raw)\n"
    sent segments
    (String.concat ", " (List.map (fun p -> Printf.sprintf "%.0f" p.sum.qps) parts))
    (Calib.median_sample cal /. 1e3);
  Printf.printf "metrics (raw wall-clock):\n";
  Printf.printf
    "  %-14s %14.6f s      (median of %d set-ups: Server.start, \
     Handler.create, publish, first ping answered)\n"
    "setup_s" (Stat.median setups /. 1e9) setup_reps;
  Printf.printf
    "  %-14s %14.3f q/s    (answered queries per second of round trips, \
     median %d-request window, best part)  [throughput_per_s]\n"
    "serve_qps" u.qps window;
  Printf.printf
    "  %-14s %14.3f us     (per-kind medians weighted by the mix; plain \
     median %.3f us)  [latency_p50_us]\n"
    "serve_p50_us" u.p50 u.p50_all;
  Printf.printf
    "  %-14s %14.3f us     (11th slowest of each %d-request window, median \
     window; 11th slowest of all %d round trips: %.3f us)  [latency_tail_us]\n"
    "serve_tail_us" u.tail window untraced.sent u.tail_all;
  Printf.printf "  %-14s %14.6f ratio  (the served TM against the dataset's)\n"
    "rel_l2_mean" rel_l2;
  Printf.printf "  %-14s %14.6f MB     (Obj.reachable_words of the Handler)\n"
    "state_mb" state_mb;
  Printf.printf "  %-14s %14.6f ratio  (%d failed of %d attempted)\n"
    "fail_frac"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  Printf.printf
    "checks: every answer has its request's kind and the published TM's \
     bits (latest-tm, od-flow, what-if, topology, ping echo): %d failure(s)\n"
    answer_failed;
  Printf.printf "  %-10s %8s %12s\n" "kind" "count" "rtt p50 us";
  List.iteri
    (fun k name ->
      Printf.printf "  %-10s %8d %12.3f\n" name untraced.kind_counts.(k)
        (Stat.median u.kind_rtts.(k) /. 1e3))
    Out.kinds;
  let e2e =
    [
      Out.m "throughput_per_s" "1/s" u.qps;
      Out.m "latency_p50_us" "us" u.p50;
      Out.m "latency_tail_us" "us" u.tail;
      Out.m "rel_l2_mean" "ratio" rel_l2;
      Out.m "state_mb" "MB" state_mb;
      Out.m "setup_s" "s" (Stat.median setups /. 1e9);
    ]
  in
  let layers, t_attempted, t_failed =
    if not trace then begin
      Printf.printf "Trace.dropped 0 (untraced run)\n";
      ([], 0, 0)
    end
    else begin
      let tracer =
        Trace.create
          ~capacity:((2 * traced_cap * connections) + (replay_rounds * sequence_len) + 1024)
          ~clock:(fun () -> Calib.now_ns () *. 1e-9)
          ()
      in
      let before = !setup_failed in
      let tparts =
        List.init segments (fun _ ->
            fresh_part ~tracer ~cap:(traced_cap / segments) ())
      in
      let ok = !setup_failed = before in
      let handler, traced = best tparts in
      let split = replay handler inputs in
      let dropped = Trace.dropped tracer in
      let overhead = 100. *. ((u.qps /. traced.sum.qps) -. 1.) in
      (* Per-request means, weighted by the traced loop's kind counts. *)
      let weighted f =
        let s = ref 0. in
        Array.iteri (fun k n -> s := !s +. (float_of_int n *. f split.(k))) traced.kind_counts;
        !s /. float_of_int (max 1 traced.sent)
      in
      let dec = weighted (fun (d, _, _) -> d) in
      let hdl = weighted (fun (_, h, _) -> h) in
      let enc = weighted (fun (_, _, e) -> e) in
      let total = traced.mean_rtt in
      let transport = total -. dec -. hdl -. enc -. traced.client_decode in
      let t_sent = List.fold_left (fun a (_, p) -> a + p.sent) 0 tparts in
      let t_failed = List.fold_left (fun a (_, p) -> a + p.failed) 0 tparts in
      let closes = dropped = 0 && transport >= 0. && ok && t_failed = 0 in
      Printf.printf "traced run: %d round trips, Trace.dropped %d, spans recorded %d\n"
        traced.sent dropped (Trace.recorded tracer);
      Printf.printf "  tracing overhead: %.2f%% (traced %.3f q/s vs untraced %.3f)\n"
        overhead traced.sum.qps u.qps;
      Printf.printf "  %-52s %10s %7s\n" "layer (per request)" "us/req" "share";
      let line name ns =
        Printf.printf "  %-52s %10.3f %6.2f%%\n" name (ns /. 1e3) (100. *. ns /. total)
      in
      line "wire.decode (server side, replayed with no socket)" dec;
      line "handler.handle (replayed with no socket)" hdl;
      line "wire.encode (server side, replayed with no socket)" enc;
      line "client.decode (this benchmark's own decode)" traced.client_decode;
      line "unattributed: serve.transport (syscalls, wake-ups)" transport;
      line "total (mean traced round trip)" total;
      Printf.printf "  ledger closes: %s\n" (if closes then "yes" else "NO");
      Printf.printf "  %-10s %8s %12s %12s %12s %12s\n" "kind" "count" "decode us"
        "handle us" "encode us" "rtt p50 us";
      List.iteri
        (fun k name ->
          let d, h, e = split.(k) in
          Printf.printf "  %-10s %8d %12.3f %12.3f %12.3f %12.3f\n" name
            traced.kind_counts.(k) (d /. 1e3) (h /. 1e3) (e /. 1e3)
            (Stat.median u.kind_rtts.(k) /. 1e3))
        Out.kinds;
      let per_kind prefix unit f = List.mapi (fun k name -> Out.m (prefix ^ name) unit (f k)) Out.kinds in
      let layers =
        [ Out.m "wire.decode_us" "us/req" (dec /. 1e3) ]
        @ per_kind "wire.encode_us." "us/req" (fun k -> let _, _, e = split.(k) in e /. 1e3)
        @ per_kind "handler.handle_us." "us/req" (fun k -> let _, h, _ = split.(k) in h /. 1e3)
        @ per_kind "serve.rtt_us." "us" (fun k -> Stat.median u.kind_rtts.(k) /. 1e3)
        @ [
            Out.m "client.decode_us" "us/req" (traced.client_decode /. 1e3);
            Out.m "serve.transport_us" "us/req" (transport /. 1e3);
            Out.m "serve.resp_bytes" "B/req" (untraced.bytes /. float_of_int (max 1 untraced.sent));
            Out.m "ledger.unattributed_us" "us/op" (transport /. 1e3);
            Out.m "trace.overhead_pct" "%" overhead;
          ]
      in
      (layers, t_sent + segments, t_failed + if closes then 0 else 1)
    end
  in
  { Out.attempted = attempted + t_attempted; failed = failed + t_failed; e2e; layers }
