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

(* Widened for the byte oracle: a rare string at the u16 limit. *)
let gen_wide_string =
  QCheck2.Gen.(
    frequency [ (300, gen_string); (1, string_size ~gen:char (return 0xffff)) ])

(* Widened for the byte oracle: the u32 limits as well as small values. *)
let gen_wide_u32 =
  QCheck2.Gen.(
    oneof
      [
        int_range 0 1_000_000;
        int_range 0 0xffffffff;
        oneofl [ 0x7fffffff; 0x80000000; 0xffffffff ];
      ])

let gen_request_with ~wide =
  let gen_string = if wide then gen_wide_string else gen_string in
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

let gen_request = gen_request_with ~wide:false

(* [~wide] draws TMs up to 30 PoPs and u32 fields up to their limit; at
   most two node names of a topology come from the wide strings, which
   keeps the every-prefix oracle's frames short enough to walk. *)
let gen_response_with ~wide =
  let gen_bin =
    if wide then gen_wide_u32 else QCheck2.Gen.int_range 0 1_000_000
  in
  QCheck2.Gen.(
    let* tag = int_range 0 6 in
    match tag with
    | 0 -> map (fun t -> Wire.Pong t) int64
    | 1 ->
        let* bin = gen_bin in
        let* level = int_range 0 255 in
        let* n = int_range 0 (if wide then 30 else 6) in
        let* values = array_size (return (n * n)) gen_float in
        return (Wire.Tm { bin; level; n; values })
    | 2 ->
        let* bin = gen_bin in
        let* level = int_range 0 255 in
        let* value = gen_float in
        return (Wire.Flow { bin; level; value })
    | 3 ->
        let* nodes =
          if wide then
            frequency
              [
                (4, array_size (int_range 0 8) gen_string);
                (1, array_size (int_range 1 2) gen_wide_string);
              ]
          else array_size (int_range 0 8) gen_string
        in
        let* links = if wide then gen_wide_u32 else int_range 0 10_000 in
        return (Wire.Topology_info { nodes; links })
    | 4 ->
        let* bin = gen_bin in
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
        let* message = if wide then gen_wide_string else gen_string in
        return (Wire.Error { code; message }))

let gen_response = gen_response_with ~wide:false

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

(* --- byte oracle ------------------------------------------------------------ *)

(* The codec as first written: a [Buffer] encoder that writes one byte at a
   time, and a decoder that reads one byte at a time. Its bytes pin the
   format, so a change the encoder and decoder make together (little-endian
   floats, say) fails here though every round trip still holds. *)
module Ref = struct
  type request = Wire.request =
    | Ping of int64
    | Latest_tm of { tenant : string }
    | Od_flow of { tenant : string; src : int; dst : int }
    | Topology of { tenant : string }
    | Whatif of { tenant : string; scale : float }

  type response = Wire.response =
    | Pong of int64
    | Tm of { bin : int; level : int; n : int; values : float array }
    | Flow of { bin : int; level : int; value : float }
    | Topology_info of { nodes : string array; links : int }
    | Whatif_load of { bin : int; scale : float; loads : float array }
    | Shed of Wire.shed_scope
    | Error of { code : Wire.error_code; message : string }

  let magic = "ICP1"
  let header_len = 9

  let error_code_tag : Wire.error_code -> int = function
    | Bad_request -> 1
    | Unknown_tenant -> 2
    | No_estimate -> 3
    | Bad_od -> 4
    | Frame_too_large -> 5
    | Draining -> 6

  let error_code_of_tag : int -> Wire.error_code option = function
    | 1 -> Some Bad_request
    | 2 -> Some Unknown_tenant
    | 3 -> Some No_estimate
    | 4 -> Some Bad_od
    | 5 -> Some Frame_too_large
    | 6 -> Some Draining
    | _ -> None

  let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

  let add_u16 buf v =
    if v < 0 || v > 0xffff then invalid_arg "Wire: u16 field out of range";
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (v land 0xff))

  let add_u32 buf v =
    if v < 0 || v > 0xffffffff then invalid_arg "Wire: u32 field out of range";
    add_u16 buf ((v lsr 16) land 0xffff);
    add_u16 buf (v land 0xffff)

  let add_i64 buf (v : int64) =
    for shift = 7 downto 0 do
      Buffer.add_char buf
        (Char.chr
           (Int64.to_int (Int64.shift_right_logical v (shift * 8)) land 0xff))
    done

  let add_f64 buf v = add_i64 buf (Int64.bits_of_float v)

  let add_str buf s =
    if String.length s > 0xffff then invalid_arg "Wire: string field too long";
    add_u16 buf (String.length s);
    Buffer.add_string buf s

  let frame tag payload =
    let buf = Buffer.create (header_len + String.length payload) in
    Buffer.add_string buf magic;
    add_u8 buf tag;
    add_u32 buf (String.length payload);
    Buffer.add_string buf payload;
    Buffer.contents buf

  let encode_request r =
    let buf = Buffer.create 32 in
    let tag =
      match r with
      | Ping token ->
          add_i64 buf token;
          0x01
      | Latest_tm { tenant } ->
          add_str buf tenant;
          0x02
      | Od_flow { tenant; src; dst } ->
          add_str buf tenant;
          add_u16 buf src;
          add_u16 buf dst;
          0x03
      | Topology { tenant } ->
          add_str buf tenant;
          0x04
      | Whatif { tenant; scale } ->
          add_str buf tenant;
          add_f64 buf scale;
          0x05
    in
    frame tag (Buffer.contents buf)

  let encode_response r =
    let buf = Buffer.create 64 in
    let tag =
      match r with
      | Pong token ->
          add_i64 buf token;
          0x81
      | Tm { bin; level; n; values } ->
          if Array.length values <> n * n then
            invalid_arg "Wire: Tm frame needs n*n values";
          add_u32 buf bin;
          add_u8 buf level;
          add_u16 buf n;
          Array.iter (add_f64 buf) values;
          0x82
      | Flow { bin; level; value } ->
          add_u32 buf bin;
          add_u8 buf level;
          add_f64 buf value;
          0x83
      | Topology_info { nodes; links } ->
          add_u16 buf (Array.length nodes);
          add_u32 buf links;
          Array.iter (add_str buf) nodes;
          0x84
      | Whatif_load { bin; scale; loads } ->
          add_u32 buf bin;
          add_f64 buf scale;
          add_u32 buf (Array.length loads);
          Array.iter (add_f64 buf) loads;
          0x85
      | Shed scope ->
          add_u8 buf (match scope with Connection -> 0 | Request -> 1);
          0x90
      | Error { code; message } ->
          add_u8 buf (error_code_tag code);
          add_str buf message;
          0x91
    in
    frame tag (Buffer.contents buf)

  exception Bad of string

  type cursor = { s : string; mutable pos : int; limit : int }

  let need c n = if c.pos + n > c.limit then raise (Bad "truncated payload")

  let get_u8 c =
    need c 1;
    let v = Char.code c.s.[c.pos] in
    c.pos <- c.pos + 1;
    v

  let get_u16 c =
    let hi = get_u8 c in
    let lo = get_u8 c in
    (hi lsl 8) lor lo

  let get_u32 c =
    let hi = get_u16 c in
    let lo = get_u16 c in
    (hi lsl 16) lor lo

  let get_i64 c =
    need c 8;
    let v = ref 0L in
    for _ = 1 to 8 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 c))
    done;
    !v

  let get_f64 c = Int64.float_of_bits (get_i64 c)

  let get_str c =
    let len = get_u16 c in
    need c len;
    let s = String.sub c.s c.pos len in
    c.pos <- c.pos + len;
    s

  let get_floats c count =
    need c (8 * count);
    Array.init count (fun _ -> get_f64 c)

  let split_frame s =
    if String.length s < header_len then Result.error "truncated header"
    else if String.sub s 0 4 <> magic then Result.error "bad magic"
    else begin
      let c = { s; pos = 4; limit = String.length s } in
      let tag = get_u8 c in
      let len = get_u32 c in
      if String.length s - header_len <> len then
        Result.error "frame length mismatch"
      else Result.ok (tag, { s; pos = header_len; limit = String.length s })
    end

  let finish c v =
    if c.pos <> c.limit then Result.error "trailing bytes in payload"
    else Result.ok v

  let decode_request s =
    match split_frame s with
    | Error e -> Result.error e
    | Ok (tag, c) -> begin
        try
          match tag with
          | 0x01 -> finish c (Ping (get_i64 c))
          | 0x02 -> finish c (Latest_tm { tenant = get_str c })
          | 0x03 ->
              let tenant = get_str c in
              let src = get_u16 c in
              let dst = get_u16 c in
              finish c (Od_flow { tenant; src; dst })
          | 0x04 -> finish c (Topology { tenant = get_str c })
          | 0x05 ->
              let tenant = get_str c in
              let scale = get_f64 c in
              finish c (Whatif { tenant; scale })
          | _ -> Result.error "unknown request tag"
        with Bad e -> Result.error e
      end

  let decode_response s =
    match split_frame s with
    | Error e -> Result.error e
    | Ok (tag, c) -> begin
        try
          match tag with
          | 0x81 -> finish c (Pong (get_i64 c))
          | 0x82 ->
              let bin = get_u32 c in
              let level = get_u8 c in
              let n = get_u16 c in
              if c.limit - c.pos <> 8 * n * n then
                Result.error "tm frame size mismatch"
              else finish c (Tm { bin; level; n; values = get_floats c (n * n) })
          | 0x83 ->
              let bin = get_u32 c in
              let level = get_u8 c in
              let value = get_f64 c in
              finish c (Flow { bin; level; value })
          | 0x84 ->
              let count = get_u16 c in
              let links = get_u32 c in
              let nodes = Array.init count (fun _ -> get_str c) in
              finish c (Topology_info { nodes; links })
          | 0x85 ->
              let bin = get_u32 c in
              let scale = get_f64 c in
              let count = get_u32 c in
              if c.limit - c.pos <> 8 * count then
                Result.error "whatif frame size mismatch"
              else
                finish c (Whatif_load { bin; scale; loads = get_floats c count })
          | 0x90 -> begin
              match get_u8 c with
              | 0 -> finish c (Shed Connection)
              | 1 -> finish c (Shed Request)
              | _ -> Result.error "bad shed scope"
            end
          | 0x91 -> begin
              let tag = get_u8 c in
              let message = get_str c in
              match error_code_of_tag tag with
              | Some code -> finish c (Error { code; message })
              | None -> Result.error "bad error code"
            end
          | _ -> Result.error "unknown response tag"
        with Bad e -> Result.error e
      end
end

let describe kind = function
  | Ok v -> "Ok " ^ kind v
  | Error e -> "Error " ^ e

let same eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error x, Error y -> String.equal x y
  | _ -> false

(* Both decoders of both codecs on one input, compared result for result,
   error strings included. *)
let decodes_as_reference s =
  let req = Wire.decode_request s and req' = Ref.decode_request s in
  let resp = Wire.decode_response s and resp' = Ref.decode_response s in
  if not (same request_eq req req') then
    QCheck2.Test.fail_reportf "decode_request of %d bytes: %s, reference %s"
      (String.length s)
      (describe Wire.request_kind req)
      (describe Wire.request_kind req')
  else if not (same response_eq resp resp') then
    QCheck2.Test.fail_reportf "decode_response of %d bytes: %s, reference %s"
      (String.length s)
      (describe Wire.response_kind resp)
      (describe Wire.response_kind resp')
  else true

(* The first [len] bytes of [payload] under a header that declares [len],
   so the decoders read into them. *)
let reframe tag payload len =
  let b = Bytes.create (Wire.header_len + len) in
  Bytes.blit_string Wire.magic 0 b 0 4;
  Bytes.set_uint8 b 4 tag;
  Bytes.set_int32_be b 5 (Int32.of_int len);
  Bytes.blit_string payload 0 b Wire.header_len len;
  Bytes.unsafe_to_string b

let prop_same_bytes encode encode_ref v =
  let frame = encode v and frame' = encode_ref v in
  String.equal frame frame'
  || QCheck2.Test.fail_reportf
       "frame of %d bytes differs from the reference's %d"
       (String.length frame) (String.length frame')

(* Every prefix of the frame and the frame plus one byte; then every
   prefix of the payload, and the payload plus one byte, under a header
   that declares that length. *)
let prop_prefixes_as_reference encode_ref v =
  let frame = encode_ref v in
  let tag = Char.code frame.[4] in
  let payload =
    String.sub frame Wire.header_len (String.length frame - Wire.header_len)
  in
  let ok = ref (decodes_as_reference (frame ^ "\x00")) in
  for len = 0 to String.length frame do
    ok := !ok && decodes_as_reference (String.sub frame 0 len)
  done;
  for len = 0 to String.length payload do
    ok := !ok && decodes_as_reference (reframe tag payload len)
  done;
  !ok
  && decodes_as_reference
       (reframe tag (payload ^ "\x00") (String.length payload + 1))

(* Inputs near the format: arbitrary bytes, valid frames with a few bytes
   overwritten, and arbitrary payloads under a well-formed header. *)
let gen_near_frames =
  QCheck2.Gen.(
    let overwrite frame =
      let* edits = list_size (int_range 1 4) (pair nat char) in
      let b = Bytes.of_string frame in
      List.iter (fun (i, ch) -> Bytes.set b (i mod Bytes.length b) ch) edits;
      return (Bytes.to_string b)
    in
    oneof
      [
        string_size ~gen:char (int_range 0 128);
        gen_request >>= (fun r -> overwrite (Ref.encode_request r));
        gen_response >>= (fun r -> overwrite (Ref.encode_response r));
        (let* tag =
           oneof
             [
               int_range 0x01 0x05;
               int_range 0x81 0x85;
               oneofl [ 0x90; 0x91 ];
               int_range 0 255;
             ]
         in
         map
           (fun p -> reframe tag p (String.length p))
           (string_size ~gen:char (int_range 0 64)));
      ])

(* Fields inside and outside their ranges, several at once, so the first
   failing check must be the reference's. Levels outside 0..255 are not
   checked: both write the low byte. *)
let gen_u16_field =
  QCheck2.Gen.(
    oneof [ int_range 0 0xffff; oneofl [ -1; 0x10000; min_int; max_int ] ])

let gen_u32_field =
  QCheck2.Gen.(
    oneof [ gen_wide_u32; oneofl [ -1; 0x1_0000_0000; min_int; max_int ] ])

let gen_level_field =
  QCheck2.Gen.(
    oneof [ int_range 0 255; oneofl [ -1; 256; 0x1ff; min_int; max_int ] ])

let gen_str_field =
  QCheck2.Gen.(
    oneof
      [
        gen_string;
        map (fun k -> String.make k 'z') (oneofl [ 0xffff; 0x10000 ]);
      ])

let gen_any_request =
  QCheck2.Gen.(
    oneof
      [
        gen_request;
        map (fun tenant -> Wire.Latest_tm { tenant }) gen_str_field;
        map (fun tenant -> Wire.Topology { tenant }) gen_str_field;
        map3
          (fun tenant src dst -> Wire.Od_flow { tenant; src; dst })
          gen_str_field gen_u16_field gen_u16_field;
        map2
          (fun tenant scale -> Wire.Whatif { tenant; scale })
          gen_str_field gen_float;
      ])

let gen_any_response =
  QCheck2.Gen.(
    oneof
      [
        gen_response;
        (let* n = oneof [ int_range 0 4; oneofl [ -1; 0x10000 ] ] in
         let* count =
           oneof
             [ return (if n >= 0 && n <= 4 then n * n else 1); int_range 0 17 ]
         in
         let* values = array_size (return count) gen_float in
         map2
           (fun bin level -> Wire.Tm { bin; level; n; values })
           gen_u32_field gen_level_field);
        map3
          (fun bin level value -> Wire.Flow { bin; level; value })
          gen_u32_field gen_level_field gen_float;
        (let* nodes =
           oneof
             [
               array_size (int_range 0 3) gen_str_field;
               return (Array.make 0x10000 "");
             ]
         in
         map (fun links -> Wire.Topology_info { nodes; links }) gen_u32_field);
        (let* loads = array_size (int_range 0 4) gen_float in
         map2
           (fun bin scale -> Wire.Whatif_load { bin; scale; loads })
           gen_u32_field gen_float);
        map
          (fun message -> Wire.Error { code = Wire.Bad_od; message })
          gen_str_field;
      ])

let prop_same_outcome encode encode_ref v =
  let outcome enc =
    match enc v with s -> Ok s | exception Invalid_argument m -> Error m
  in
  match (outcome encode, outcome encode_ref) with
  | Ok s, Ok s' -> String.equal s s' || QCheck2.Test.fail_report "frame differs"
  | Error m, Error m' ->
      String.equal m m'
      || QCheck2.Test.fail_reportf "raised %S, reference %S" m m'
  | Ok _, Error m' -> QCheck2.Test.fail_reportf "encoded; reference raised %S" m'
  | Error m, Ok _ -> QCheck2.Test.fail_reportf "raised %S; reference encoded" m

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

(* Send [data] from a second domain, so a message longer than the socket's
   buffer cannot block the reading side. Both directions time out rather
   than hang if the other side stops early. *)
let with_sender data f =
  with_socketpair (fun client server ->
      Unix.setsockopt_float client Unix.SO_SNDTIMEO 5.;
      Unix.setsockopt_float server Unix.SO_RCVTIMEO 5.;
      let sender =
        Domain.spawn (fun () ->
            try Wire.write_all client data with Unix.Unix_error _ -> ())
      in
      Fun.protect
        ~finally:(fun () -> Domain.join sender)
        (fun () -> f (Wire.reader server)))

(* A 100-PoP TM answer is 80,016 bytes, longer than the reader's 64 KiB
   buffer but far under the frame cap; the next frame must still read. *)
let big_tm =
  Wire.Tm
    {
      bin = 3;
      level = 1;
      n = 100;
      values = Array.init 10_000 (fun i -> Float.of_int i /. 7.);
    }

let test_reader_long_tm_frame () =
  let frame = Wire.encode_response big_tm in
  Alcotest.(check int) "frame bytes" 80_016 (String.length frame);
  with_sender (frame ^ Wire.encode_response (Wire.Pong 5L)) (fun reader ->
      (match Wire.read_response reader with
      | `Response resp ->
          Alcotest.(check bool) "tm bits" true (response_eq big_tm resp)
      | `Malformed e -> Alcotest.failf "long tm frame: malformed %s" e
      | _ -> Alcotest.fail "long tm frame not read");
      match Wire.read_response reader with
      | `Response (Wire.Pong 5L) -> ()
      | _ -> Alcotest.fail "frame after the long one")

let test_reader_long_json_line () =
  let line = Wire.json_of_response big_tm ^ "\n" in
  Alcotest.(check bool)
    "longer than the buffer" true
    (String.length line > 65536);
  with_sender (line ^ Wire.json_of_response (Wire.Pong 5L) ^ "\n") (fun reader ->
      (match Wire.read_response reader with
      | `Json "tm" -> ()
      | `Malformed e -> Alcotest.failf "long json line: malformed %s" e
      | _ -> Alcotest.fail "long json line not read");
      match Wire.read_response reader with
      | `Json "pong" -> ()
      | _ -> Alcotest.fail "line after the long one")

(* The largest tenant a u16 length allows: a 65,546-byte request. *)
let test_reader_long_request_frame () =
  let tenant = String.init 0xffff (fun i -> Char.chr (97 + (i mod 26))) in
  let frame = Wire.encode_request (Wire.Latest_tm { tenant }) in
  Alcotest.(check int) "frame bytes" 65_546 (String.length frame);
  with_sender (frame ^ Wire.encode_request (Wire.Ping 9L)) (fun reader ->
      (match Wire.next reader with
      | Wire.Bin_request (Wire.Latest_tm { tenant = t }) ->
          Alcotest.(check bool) "tenant" true (String.equal tenant t)
      | Wire.Malformed e -> Alcotest.failf "long request: malformed %s" e
      | _ -> Alcotest.fail "long request not read");
      match Wire.next reader with
      | Wire.Bin_request (Wire.Ping 9L) -> ()
      | _ -> Alcotest.fail "request after the long one")

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
      ( "byte oracle",
        [
          qcheck ~count:1000 "request frames equal the reference's"
            (gen_request_with ~wide:true)
            (prop_same_bytes Wire.encode_request Ref.encode_request);
          qcheck ~count:1000 "response frames equal the reference's"
            (gen_response_with ~wide:true)
            (prop_same_bytes Wire.encode_response Ref.encode_response);
          qcheck ~count:100 "request prefixes decode as the reference's"
            (gen_request_with ~wide:true)
            (prop_prefixes_as_reference Ref.encode_request);
          qcheck ~count:200 "response prefixes decode as the reference's"
            (gen_response_with ~wide:true)
            (prop_prefixes_as_reference Ref.encode_response);
          qcheck ~count:1000 "near-frames decode as the reference's"
            gen_near_frames decodes_as_reference;
          qcheck "request range errors are the reference's" gen_any_request
            (prop_same_outcome Wire.encode_request Ref.encode_request);
          qcheck "response range errors are the reference's" gen_any_response
            (prop_same_outcome Wire.encode_response Ref.encode_response);
        ] );
      ( "reader",
        [
          Alcotest.test_case "protocol sniffing" `Quick test_reader_sniffing;
          Alcotest.test_case "oversized frame rejected from header" `Quick
            test_reader_oversized;
          Alcotest.test_case "malformed frame" `Quick test_reader_malformed;
          Alcotest.test_case "tm frame longer than the buffer" `Quick
            test_reader_long_tm_frame;
          Alcotest.test_case "json line longer than the buffer" `Quick
            test_reader_long_json_line;
          Alcotest.test_case "request frame longer than the buffer" `Quick
            test_reader_long_request_frame;
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
