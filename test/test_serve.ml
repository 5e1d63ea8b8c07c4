(* The serving plane: wire-codec round trips under adversarial floats and
   strings, malformed-frame rejection (truncation, bad magic, trailing
   bytes, oversized declarations) without exceptions, handler query
   semantics, and live acceptor/worker servers — end-to-end loadgen runs,
   explicit connection/request shedding under overload, graceful drain,
   and the HTTP metrics endpoint. *)

module Wire = Ic_serve.Wire
module Source = Ic_serve.Source
module Handler = Ic_serve.Handler
module Server = Ic_serve.Server
module Loadgen = Ic_serve.Loadgen
module Tm = Ic_traffic.Tm
module Routing = Ic_topology.Routing
module Graph = Ic_topology.Graph

let bits = Int64.bits_of_float

(* --- generators --------------------------------------------------------- *)

let nasty_floats =
  [|
    0.;
    -0.;
    1.;
    -1.5;
    Float.nan;
    Int64.float_of_bits 0x7ff8000000000001L (* NaN with a payload *);
    Float.infinity;
    Float.neg_infinity;
    Float.min_float;
    4.9e-324;
    1.7976931348623157e308;
  |]

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        (let* i = int_range 0 (Array.length nasty_floats - 1) in
         return nasty_floats.(i));
        float;
        map Int64.float_of_bits int64;
      ])

(* Strings that stress length prefixes and the JSON escaper: NUL bytes,
   quotes, backslashes, newlines, control characters, high bytes. *)
let gen_string =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            "";
            "geant";
            "a b";
            "\"";
            "\\";
            "\n\r\t";
            "\x00\x01\x1f";
            "\xff\xfe";
            String.make 300 'x';
          ];
        string_size ~gen:char (int_range 0 64);
      ])

let gen_request =
  QCheck2.Gen.(
    let* tag = int_range 0 4 in
    match tag with
    | 0 -> map (fun t -> Wire.Ping t) int64
    | 1 -> map (fun tenant -> Wire.Latest_tm { tenant }) gen_string
    | 2 ->
        let* tenant = gen_string in
        let* src = int_range 0 0xffff in
        let* dst = int_range 0 0xffff in
        return (Wire.Od_flow { tenant; src; dst })
    | 3 -> map (fun tenant -> Wire.Topology { tenant }) gen_string
    | _ ->
        let* tenant = gen_string in
        let* scale = gen_float in
        return (Wire.Whatif { tenant; scale }))

let gen_response =
  QCheck2.Gen.(
    let* tag = int_range 0 6 in
    match tag with
    | 0 -> map (fun t -> Wire.Pong t) int64
    | 1 ->
        let* bin = int_range 0 1_000_000 in
        let* level = int_range 0 255 in
        let* n = int_range 0 6 in
        let* values = array_size (return (n * n)) gen_float in
        return (Wire.Tm { bin; level; n; values })
    | 2 ->
        let* bin = int_range 0 1_000_000 in
        let* level = int_range 0 255 in
        let* value = gen_float in
        return (Wire.Flow { bin; level; value })
    | 3 ->
        let* nodes = array_size (int_range 0 8) gen_string in
        let* links = int_range 0 10_000 in
        return (Wire.Topology_info { nodes; links })
    | 4 ->
        let* bin = int_range 0 1_000_000 in
        let* scale = gen_float in
        let* loads = array_size (int_range 0 32) gen_float in
        return (Wire.Whatif_load { bin; scale; loads })
    | 5 -> oneofl [ Wire.Shed Wire.Connection; Wire.Shed Wire.Request ]
    | _ ->
        let* code =
          oneofl
            [
              Wire.Bad_request;
              Wire.Unknown_tenant;
              Wire.No_estimate;
              Wire.Bad_od;
              Wire.Frame_too_large;
              Wire.Draining;
            ]
        in
        let* message = gen_string in
        return (Wire.Error { code; message }))

(* Bit-exact equality: floats compare by IEEE-754 pattern so NaN payloads
   count, and everything else structurally. *)
let float_eq a b = bits a = bits b

let floats_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> float_eq x y) a b

let request_eq (a : Wire.request) (b : Wire.request) =
  match (a, b) with
  | Wire.Ping x, Wire.Ping y -> x = y
  | Wire.Latest_tm { tenant = x }, Wire.Latest_tm { tenant = y } -> x = y
  | Wire.Od_flow a, Wire.Od_flow b ->
      a.tenant = b.tenant && a.src = b.src && a.dst = b.dst
  | Wire.Topology { tenant = x }, Wire.Topology { tenant = y } -> x = y
  | Wire.Whatif a, Wire.Whatif b ->
      a.tenant = b.tenant && float_eq a.scale b.scale
  | _ -> false

let response_eq (a : Wire.response) (b : Wire.response) =
  match (a, b) with
  | Wire.Pong x, Wire.Pong y -> x = y
  | Wire.Tm a, Wire.Tm b ->
      a.bin = b.bin && a.level = b.level && a.n = b.n
      && floats_eq a.values b.values
  | Wire.Flow a, Wire.Flow b ->
      a.bin = b.bin && a.level = b.level && float_eq a.value b.value
  | Wire.Topology_info a, Wire.Topology_info b ->
      a.nodes = b.nodes && a.links = b.links
  | Wire.Whatif_load a, Wire.Whatif_load b ->
      a.bin = b.bin && float_eq a.scale b.scale && floats_eq a.loads b.loads
  | Wire.Shed x, Wire.Shed y -> x = y
  | Wire.Error a, Wire.Error b -> a.code = b.code && a.message = b.message
  | _ -> false

let qcheck ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* --- codec properties ---------------------------------------------------- *)

let prop_request_roundtrip req =
  match Wire.decode_request (Wire.encode_request req) with
  | Ok req' -> request_eq req req'
  | Error e -> QCheck2.Test.fail_reportf "rejected own encoding: %s" e

let prop_response_roundtrip resp =
  match Wire.decode_response (Wire.encode_response resp) with
  | Ok resp' -> response_eq resp resp'
  | Error e -> QCheck2.Test.fail_reportf "rejected own encoding: %s" e

let prop_request_truncation req =
  let frame = Wire.encode_request req in
  let ok = ref true in
  for len = 0 to String.length frame - 1 do
    match Wire.decode_request (String.sub frame 0 len) with
    | Ok _ -> ok := false
    | Error _ -> ()
  done;
  (* Trailing garbage must be rejected too. *)
  (match Wire.decode_request (frame ^ "\x00") with
  | Ok _ -> ok := false
  | Error _ -> ());
  !ok

let prop_response_truncation resp =
  let frame = Wire.encode_response resp in
  let step = max 1 (String.length frame / 37) in
  let ok = ref true in
  let len = ref 0 in
  while !len < String.length frame do
    (match Wire.decode_response (String.sub frame 0 !len) with
    | Ok _ -> ok := false
    | Error _ -> ());
    len := !len + step
  done;
  !ok

let prop_garbage_rejected s =
  (* Any string that isn't a valid frame must produce Error, not raise. *)
  match (Wire.decode_request s, Wire.decode_response s) with
  | (Ok _ | Error _), (Ok _ | Error _) -> true

let test_bad_magic () =
  let frame = Wire.encode_request (Wire.Ping 7L) in
  let evil = "JCP1" ^ String.sub frame 4 (String.length frame - 4) in
  (match Wire.decode_request evil with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  match Wire.decode_request "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty string accepted"

let prop_json_request_roundtrip req =
  (* The JSON fallback is lossy on NaN payload bits (all NaNs become the
     canonical "nan" string) — compare through the same normalization. *)
  let norm = function
    | Wire.Whatif { tenant; scale } when Float.is_nan scale ->
        Wire.Whatif { tenant; scale = Float.nan }
    | r -> r
  in
  match Wire.request_of_json (Wire.json_of_request req) with
  | Ok req' -> request_eq (norm req) (norm req')
  | Error e -> QCheck2.Test.fail_reportf "rejected own json: %s" e

let test_json_manual () =
  (match Wire.request_of_json {|{"t":"od","src":1,"dst":2}|} with
  | Ok (Wire.Od_flow { tenant = ""; src = 1; dst = 2 }) -> ()
  | _ -> Alcotest.fail "od parse");
  (match Wire.request_of_json {|{"t":"whatif","scale":1.5}|} with
  | Ok (Wire.Whatif { scale = 1.5; _ }) -> ()
  | _ -> Alcotest.fail "whatif parse");
  (match Wire.request_of_json {|{"t":"whatif","scale":"inf"}|} with
  | Ok (Wire.Whatif { scale; _ }) when scale = Float.infinity -> ()
  | _ -> Alcotest.fail "inf scale parse");
  (match Wire.request_of_json {|{"t":"od","src":1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing dst accepted");
  (match Wire.request_of_json {|{"t":"nope"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown type accepted");
  match Wire.request_of_json {|{"t":{"x":1}}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested object accepted"

(* --- reader against a real socket ---------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_reader_sniffing () =
  with_socketpair (fun client server ->
      let reader = Wire.reader server in
      Wire.write_all client (Wire.encode_request (Wire.Ping 3L));
      (match Wire.next reader with
      | Wire.Bin_request (Wire.Ping 3L) -> ()
      | _ -> Alcotest.fail "binary sniff");
      Wire.write_all client "{\"t\":\"latest-tm\"}\n";
      (match Wire.next reader with
      | Wire.Json_request (Wire.Latest_tm { tenant = "" }) -> ()
      | _ -> Alcotest.fail "json sniff");
      Wire.write_all client "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n";
      (match Wire.next reader with
      | Wire.Http_get "/metrics" -> ()
      | _ -> Alcotest.fail "http sniff");
      Unix.close client;
      match Wire.next reader with
      | Wire.Closed -> ()
      | _ -> Alcotest.fail "close detection")

let test_reader_oversized () =
  with_socketpair (fun client server ->
      let reader = Wire.reader server in
      (* Declare a 512 MiB payload; the reader must reject it from the
         header alone, before the payload would even be sent. *)
      let buf = Buffer.create 16 in
      Buffer.add_string buf Wire.magic;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf "\x20\x00\x00\x00";
      Wire.write_all client (Buffer.contents buf);
      match Wire.next reader with
      | Wire.Too_large -> ()
      | _ -> Alcotest.fail "oversized frame not rejected from header")

let test_reader_malformed () =
  with_socketpair (fun client server ->
      let reader = Wire.reader server in
      Wire.write_all client "IBAD\x00\x00\x00\x00\x00";
      match Wire.next reader with
      | Wire.Malformed _ -> ()
      | _ -> Alcotest.fail "bad magic not rejected")

(* --- shared fixture ------------------------------------------------------ *)

let graph = Ic_topology.Topologies.abilene_like ()
let routing = Routing.build graph
let n = Graph.node_count graph

let fixture_tm =
  Tm.init n (fun i j -> if i = j then 0. else float_of_int ((i * n) + j + 1))

let make_source ?(publish = true) () =
  let src = Source.create routing in
  if publish then Source.publish src ~bin:7 ~level:0 fixture_tm;
  src

let sock_counter = ref 0

let temp_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ic_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)

(* --- handler semantics --------------------------------------------------- *)

let test_handler_queries () =
  let handler = Handler.create [ ("geant", make_source ()) ] in
  (match Handler.handle handler (Wire.Ping 99L) with
  | Wire.Pong 99L -> ()
  | _ -> Alcotest.fail "ping");
  (match Handler.handle handler (Wire.Latest_tm { tenant = "" }) with
  | Wire.Tm { bin = 7; level = 0; n = n'; values } ->
      Alcotest.(check int) "tm size" n n';
      Alcotest.(check bool) "tm payload" true
        (floats_eq values (Tm.to_vector fixture_tm))
  | _ -> Alcotest.fail "latest_tm");
  (match Handler.handle handler (Wire.Od_flow { tenant = "geant"; src = 0; dst = 1 }) with
  | Wire.Flow { bin = 7; level = 0; value } ->
      Alcotest.(check (float 0.)) "flow value" (Tm.get fixture_tm 0 1) value
  | _ -> Alcotest.fail "od_flow");
  (match Handler.handle handler (Wire.Topology { tenant = "" }) with
  | Wire.Topology_info { nodes; links } ->
      Alcotest.(check int) "nodes" n (Array.length nodes);
      Alcotest.(check int) "links" (Graph.edge_count graph) links;
      Alcotest.(check string) "node name" (Graph.name graph 0) nodes.(0)
  | _ -> Alcotest.fail "topology");
  match Handler.handle handler (Wire.Whatif { tenant = ""; scale = 2. }) with
  | Wire.Whatif_load { bin = 7; scale = 2.; loads } ->
      let expect =
        Array.sub
          (Routing.link_loads routing
             (Array.map (fun v -> 2. *. v) (Tm.to_vector fixture_tm)))
          0
          (Graph.edge_count graph)
      in
      Alcotest.(check bool) "whatif = R (s x)" true (floats_eq loads expect)
  | _ -> Alcotest.fail "whatif"

let test_handler_errors () =
  let handler = Handler.create [ ("geant", make_source ()) ] in
  let code req =
    match Handler.handle handler req with
    | Wire.Error { code; _ } -> Some code
    | _ -> None
  in
  Alcotest.(check bool) "unknown tenant" true
    (code (Wire.Latest_tm { tenant = "nope" }) = Some Wire.Unknown_tenant);
  Alcotest.(check bool) "od out of range" true
    (code (Wire.Od_flow { tenant = ""; src = 0; dst = n }) = Some Wire.Bad_od);
  Alcotest.(check bool) "nan scale" true
    (code (Wire.Whatif { tenant = ""; scale = Float.nan }) = Some Wire.Bad_request);
  let empty = Handler.create [ ("geant", make_source ~publish:false ()) ] in
  match Handler.handle empty (Wire.Latest_tm { tenant = "" }) with
  | Wire.Error { code = Wire.No_estimate; _ } -> ()
  | _ -> Alcotest.fail "no estimate"

let test_handler_counters () =
  let handler = Handler.create [ ("geant", make_source ()) ] in
  ignore (Handler.handle handler (Wire.Ping 1L));
  ignore (Handler.handle handler (Wire.Ping 2L));
  ignore (Handler.handle handler (Wire.Latest_tm { tenant = "" }));
  Handler.note_shed handler Wire.Request;
  let count name = List.assoc name (Handler.counters handler) in
  Alcotest.(check int) "requests" 3 (count "serve.requests");
  Alcotest.(check int) "ping count" 2 (count "serve.query.ping");
  Alcotest.(check int) "latest_tm count" 1 (count "serve.query.latest_tm");
  Alcotest.(check int) "od count pre-registered" 0 (count "serve.query.od_flow");
  Alcotest.(check int) "shed" 1 (count "serve.shed.request");
  let body = Handler.metrics_body handler in
  Alcotest.(check bool) "exposes query counters" true
    (String.length body > 0
    &&
    let has needle =
      let nl = String.length needle and bl = String.length body in
      let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
      go 0
    in
    has "serve_query_ping 2" && has "serve_request_duration_ns_count 3")

(* --- live server --------------------------------------------------------- *)

let start_server ?(workers = 2) ?(queue_cap = 16) ?(max_inflight = 16)
    ?stop_after ?(sources = [ ("geant", make_source ()) ]) () =
  let listen = Server.Unix_path (temp_sock ()) in
  let handler = Handler.create sources in
  let config =
    {
      (Server.default_config listen) with
      Server.workers;
      queue_cap;
      max_inflight;
      read_timeout = 5.;
      stop_after;
    }
  in
  (Server.start config handler, listen, handler)

let test_end_to_end_loadgen () =
  let queries = 60 in
  let server, listen, _ =
    start_server ~stop_after:(queries + 1) ()
  in
  let outcome =
    Loadgen.run { (Loadgen.default_config listen) with Loadgen.queries; seed = 11 }
  in
  Server.wait server;
  Alcotest.(check int) "all sent" queries outcome.Loadgen.sent;
  Alcotest.(check int) "no sheds" 0 outcome.Loadgen.shed;
  Alcotest.(check int) "no errors" 0 outcome.Loadgen.errors;
  Alcotest.(check int) "no transport failures" 0 outcome.Loadgen.transport_failures;
  Alcotest.(check int) "every query answered" queries
    (List.fold_left (fun a (_, c) -> a + c) 0 outcome.Loadgen.answered);
  Alcotest.(check int) "latencies recorded" queries
    (Array.length outcome.Loadgen.latencies_us)

let test_loadgen_deterministic_taxonomy () =
  (* Same seed, two runs against fresh servers: identical response
     taxonomy — which requests are sent is a pure function of the seed. *)
  let run () =
    let queries = 40 in
    let server, listen, _ = start_server ~stop_after:(queries + 1) () in
    let outcome =
      Loadgen.run
        { (Loadgen.default_config listen) with Loadgen.queries; seed = 5 }
    in
    Server.wait server;
    outcome.Loadgen.answered
  in
  Alcotest.(check (list (pair string int))) "same taxonomy" (run ()) (run ())

let test_loadgen_json_mode () =
  let queries = 20 in
  let server, listen, _ = start_server ~stop_after:(queries + 1) () in
  let outcome =
    Loadgen.run
      { (Loadgen.default_config listen) with Loadgen.queries; json = true; seed = 3 }
  in
  Server.wait server;
  Alcotest.(check int) "no errors over json" 0
    (outcome.Loadgen.errors + outcome.Loadgen.transport_failures);
  Alcotest.(check int) "all answered" queries
    (List.fold_left (fun a (_, c) -> a + c) 0 outcome.Loadgen.answered)

let test_request_shed () =
  (* max_inflight = 0: every request must come back as an explicit
     Shed{Request}, never a hang or a silent drop. *)
  let server, listen, handler = start_server ~max_inflight:0 () in
  let fd = Server.connect listen in
  Wire.write_all fd (Wire.encode_request (Wire.Ping 1L));
  let reader = Wire.reader fd in
  (match Wire.read_response reader with
  | `Response (Wire.Shed Wire.Request) -> ()
  | _ -> Alcotest.fail "expected Shed Request");
  (* The connection survives a request-level shed: a retry still answers. *)
  Wire.write_all fd (Wire.encode_request (Wire.Ping 2L));
  (match Wire.read_response reader with
  | `Response (Wire.Shed Wire.Request) -> ()
  | _ -> Alcotest.fail "expected second Shed Request");
  Unix.close fd;
  Server.stop server;
  Server.wait server;
  Alcotest.(check int) "shed counter" 2
    (List.assoc "serve.shed.request" (Handler.counters handler))

let test_connection_shed () =
  (* One worker pinned by an idle connection, a queue of one: the third
     connection must be refused with an explicit Shed{Connection}. *)
  let server, listen, handler =
    start_server ~workers:1 ~queue_cap:1 ()
  in
  let blocker = Server.connect listen in
  (* Wait until the worker owns the blocker (it is off the queue once a
     later connection's request is answered... so instead give the
     acceptor a moment to hand it over). *)
  Unix.sleepf 0.3;
  let queued = Server.connect listen in
  Unix.sleepf 0.3;
  let shed = Server.connect listen in
  let reader = Wire.reader shed in
  (match Wire.read_response reader with
  | `Response (Wire.Shed Wire.Connection) -> ()
  | other ->
      Alcotest.failf "expected Shed Connection, got %s"
        (match other with
        | `Response r -> Wire.response_kind r
        | `Closed -> "closed"
        | `Timed_out -> "timeout"
        | `Json k -> "json " ^ k
        | `Malformed e -> "malformed " ^ e));
  (try Unix.close shed with Unix.Unix_error _ -> ());
  (* Unblock the worker; the queued connection must then be served. *)
  Unix.close blocker;
  Wire.write_all queued (Wire.encode_request (Wire.Ping 9L));
  (match Wire.read_response (Wire.reader queued) with
  | `Response (Wire.Pong 9L) -> ()
  | _ -> Alcotest.fail "queued connection not served after unblock");
  Unix.close queued;
  Server.stop server;
  Server.wait server;
  Alcotest.(check int) "connection shed counter" 1
    (List.assoc "serve.shed.connection" (Handler.counters handler))

let test_graceful_drain () =
  let server, listen, _ = start_server ~stop_after:1 () in
  let fd = Server.connect listen in
  Wire.write_all fd (Wire.encode_request (Wire.Ping 5L));
  (match Wire.read_response (Wire.reader fd) with
  | `Response (Wire.Pong 5L) -> ()
  | _ -> Alcotest.fail "in-flight request not answered");
  Unix.close fd;
  Server.wait server;
  Alcotest.(check int) "answered exactly stop_after" 1 (Server.answered server)

let test_on_drain_hook () =
  let flushed = ref false in
  let listen = Server.Unix_path (temp_sock ()) in
  let handler = Handler.create [ ("geant", make_source ()) ] in
  let server =
    Server.start
      ~on_drain:(fun () -> flushed := true)
      (Server.default_config listen) handler
  in
  Server.stop server;
  Server.wait server;
  Alcotest.(check bool) "on_drain ran" true !flushed

(* A TCP port outside 0..65535 or a [stop_after] below 1 is refused before
   anything is bound: the port would otherwise wrap onto another one, and
   [stop_after = Some 0] would drain after the first answer. *)
let test_start_rejects_bad_config () =
  let handler = Handler.create [ ("geant", make_source ()) ] in
  let refused config =
    match Server.start config handler with
    | exception Invalid_argument _ -> true
    | server ->
        Server.stop server;
        Server.wait server;
        false
  in
  List.iter
    (fun port ->
      Alcotest.(check bool)
        (Printf.sprintf "port %d refused" port)
        true
        (refused (Server.default_config (Server.Tcp ("127.0.0.1", port)))))
    [ -1; 65536; 70000 ];
  let path = temp_sock () in
  Alcotest.(check bool) "stop_after 0 refused" true
    (refused
       { (Server.default_config (Server.Unix_path path)) with stop_after = Some 0 });
  Alcotest.(check bool) "nothing bound" false (Sys.file_exists path)

let test_http_metrics () =
  let server, listen, _ = start_server () in
  let fd = Server.connect listen in
  Wire.write_all fd "GET /metrics HTTP/1.0\r\n\r\n";
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        drain ()
    | exception Unix.Unix_error _ -> ()
  in
  drain ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.stop server;
  Server.wait server;
  let body = Buffer.contents buf in
  let has needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "200" true (has "HTTP/1.0 200 OK");
  Alcotest.(check bool) "serve counters exposed" true (has "serve_requests");
  Alcotest.(check bool) "query taxonomy exposed" true (has "serve_query_latest_tm");
  Alcotest.(check bool) "duration histogram exposed" true
    (has "# TYPE serve_request_duration_ns histogram")

let test_malformed_over_socket () =
  let server, listen, handler = start_server () in
  let fd = Server.connect listen in
  Wire.write_all fd "IXXX\x00\x00\x00\x00\x00";
  (match Wire.read_response (Wire.reader fd) with
  | `Response (Wire.Error { code = Wire.Bad_request; _ }) -> ()
  | _ -> Alcotest.fail "malformed frame not answered with Error");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.stop server;
  Server.wait server;
  Alcotest.(check int) "malformed counter" 1
    (List.assoc "serve.malformed" (Handler.counters handler))

(* A malformed JSON line must be answered in JSON, not with a binary
   error frame the JSON-speaking peer cannot read. *)
let test_json_malformed_over_socket () =
  let server, listen, handler = start_server () in
  let fd = Server.connect listen in
  Wire.write_all fd "{\"t\":\"ping\",\"token\":\"not a number\"}\n";
  let reader = Wire.reader fd in
  (match Wire.read_response reader with
  | `Json "error" -> ()
  | `Json k -> Alcotest.failf "expected a JSON error reply, got json %s" k
  | `Response _ -> Alcotest.fail "binary reply to a JSON-speaking peer"
  | _ -> Alcotest.fail "malformed json line not answered");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Server.stop server;
  Server.wait server;
  Alcotest.(check int) "malformed counter" 1
    (List.assoc "serve.malformed" (Handler.counters handler))

(* --- suite --------------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          qcheck "request round-trip (bit-exact)" gen_request
            prop_request_roundtrip;
          qcheck "response round-trip (bit-exact)" gen_response
            prop_response_roundtrip;
          qcheck ~count:200 "request truncations rejected" gen_request
            prop_request_truncation;
          qcheck ~count:100 "response truncations rejected" gen_response
            prop_response_truncation;
          qcheck ~count:500 "arbitrary bytes never raise"
            QCheck2.Gen.(string_size ~gen:char (int_range 0 128))
            prop_garbage_rejected;
          Alcotest.test_case "bad magic / empty rejected" `Quick test_bad_magic;
          qcheck ~count:300 "json request round-trip" gen_request
            prop_json_request_roundtrip;
          Alcotest.test_case "json corner cases" `Quick test_json_manual;
        ] );
      ( "reader",
        [
          Alcotest.test_case "protocol sniffing" `Quick test_reader_sniffing;
          Alcotest.test_case "oversized frame rejected from header" `Quick
            test_reader_oversized;
          Alcotest.test_case "malformed frame" `Quick test_reader_malformed;
        ] );
      ( "handler",
        [
          Alcotest.test_case "query semantics" `Quick test_handler_queries;
          Alcotest.test_case "error taxonomy" `Quick test_handler_errors;
          Alcotest.test_case "counters and exposition" `Quick
            test_handler_counters;
        ] );
      ( "server",
        [
          Alcotest.test_case "end-to-end loadgen" `Quick test_end_to_end_loadgen;
          Alcotest.test_case "deterministic response taxonomy" `Quick
            test_loadgen_deterministic_taxonomy;
          Alcotest.test_case "json mode end-to-end" `Quick test_loadgen_json_mode;
          Alcotest.test_case "request-level shed" `Quick test_request_shed;
          Alcotest.test_case "connection-level shed" `Quick test_connection_shed;
          Alcotest.test_case "graceful drain via stop_after" `Quick
            test_graceful_drain;
          Alcotest.test_case "on_drain hook" `Quick test_on_drain_hook;
          Alcotest.test_case "start rejects bad port or stop_after" `Quick
            test_start_rejects_bad_config;
          Alcotest.test_case "http metrics endpoint" `Quick test_http_metrics;
          Alcotest.test_case "malformed over socket" `Quick
            test_malformed_over_socket;
          Alcotest.test_case "json malformed over socket" `Quick
            test_json_malformed_over_socket;
        ] );
    ]
