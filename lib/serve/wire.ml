(* The serving layer's wire protocol. See wire.mli for the format. *)

let magic = "ICP1"

let header_len = 9

let default_max_frame = 4 * 1024 * 1024

type error_code =
  | Bad_request
  | Unknown_tenant
  | No_estimate
  | Bad_od
  | Frame_too_large
  | Draining

let error_code_name = function
  | Bad_request -> "bad-request"
  | Unknown_tenant -> "unknown-tenant"
  | No_estimate -> "no-estimate"
  | Bad_od -> "bad-od"
  | Frame_too_large -> "frame-too-large"
  | Draining -> "draining"

let error_code_tag = function
  | Bad_request -> 1
  | Unknown_tenant -> 2
  | No_estimate -> 3
  | Bad_od -> 4
  | Frame_too_large -> 5
  | Draining -> 6

let error_code_of_tag = function
  | 1 -> Some Bad_request
  | 2 -> Some Unknown_tenant
  | 3 -> Some No_estimate
  | 4 -> Some Bad_od
  | 5 -> Some Frame_too_large
  | 6 -> Some Draining
  | _ -> None

type shed_scope = Connection | Request

type request =
  | Ping of int64
  | Latest_tm of { tenant : string }
  | Od_flow of { tenant : string; src : int; dst : int }
  | Topology of { tenant : string }
  | Whatif of { tenant : string; scale : float }

type response =
  | Pong of int64
  | Tm of { bin : int; level : int; n : int; values : float array }
  | Flow of { bin : int; level : int; value : float }
  | Topology_info of { nodes : string array; links : int }
  | Whatif_load of { bin : int; scale : float; loads : float array }
  | Shed of shed_scope
  | Error of { code : error_code; message : string }

let request_kind = function
  | Ping _ -> "ping"
  | Latest_tm _ -> "latest_tm"
  | Od_flow _ -> "od_flow"
  | Topology _ -> "topology"
  | Whatif _ -> "whatif"

let response_kind = function
  | Pong _ -> "pong"
  | Tm _ -> "tm"
  | Flow _ -> "flow"
  | Topology_info _ -> "topo"
  | Whatif_load _ -> "whatif"
  | Shed _ -> "shed"
  | Error _ -> "error"

(* --- binary encoding --------------------------------------------------- *)

(* A frame is sized first, with every range check in field order, and then
   written once into a [Bytes] of exactly that size, header included. *)

let check_u16 v =
  if v < 0 || v > 0xffff then invalid_arg "Wire: u16 field out of range"

let check_u32 v =
  if v < 0 || v > 0xffffffff then invalid_arg "Wire: u32 field out of range"

(* The bytes a u16-length-prefixed string takes. *)
let str_size s =
  if String.length s > 0xffff then invalid_arg "Wire: string field too long";
  2 + String.length s

(* Unchecked big-endian 64-bit accesses, for float arrays: the encoder
   sized the frame for the whole array, and the decoder checked the
   array's length once. *)
external unsafe_get_int64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_int64 : Bytes.t -> int -> int64 -> unit
  = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let unsafe_get_int64_be b i =
  let v = unsafe_get_int64 b i in
  if Sys.big_endian then v else swap64 v

let unsafe_set_int64_be b i v =
  unsafe_set_int64 b i (if Sys.big_endian then v else swap64 v)

type writer = { b : Bytes.t; mutable off : int }

(* Frames are [magic | tag u8 | payload length u32 | payload]. *)
let start tag len =
  check_u32 len;
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 tag;
  Bytes.set_int32_be b 5 (Int32.of_int len);
  { b; off = header_len }

let contents w = Bytes.unsafe_to_string w.b

(* [put_u8] keeps the low byte of its argument. *)
let put_u8 w v =
  Bytes.set_uint8 w.b w.off v;
  w.off <- w.off + 1

let put_u16 w v =
  Bytes.set_uint16_be w.b w.off v;
  w.off <- w.off + 2

let put_u32 w v =
  Bytes.set_int32_be w.b w.off (Int32.of_int v);
  w.off <- w.off + 4

let put_i64 w v =
  Bytes.set_int64_be w.b w.off v;
  w.off <- w.off + 8

let put_f64 w v = put_i64 w (Int64.bits_of_float v)

let put_str w s =
  put_u16 w (String.length s);
  Bytes.blit_string s 0 w.b w.off (String.length s);
  w.off <- w.off + String.length s

let put_floats w a =
  let b = w.b and off = w.off in
  for i = 0 to Array.length a - 1 do
    unsafe_set_int64_be b
      (off + (8 * i))
      (Int64.bits_of_float (Array.unsafe_get a i))
  done;
  w.off <- off + (8 * Array.length a)

let encode_request r =
  match r with
  | Ping token ->
      let w = start 0x01 8 in
      put_i64 w token;
      contents w
  | Latest_tm { tenant } ->
      let w = start 0x02 (str_size tenant) in
      put_str w tenant;
      contents w
  | Od_flow { tenant; src; dst } ->
      let len = str_size tenant + 4 in
      check_u16 src;
      check_u16 dst;
      let w = start 0x03 len in
      put_str w tenant;
      put_u16 w src;
      put_u16 w dst;
      contents w
  | Topology { tenant } ->
      let w = start 0x04 (str_size tenant) in
      put_str w tenant;
      contents w
  | Whatif { tenant; scale } ->
      let w = start 0x05 (str_size tenant + 8) in
      put_str w tenant;
      put_f64 w scale;
      contents w

let encode_response r =
  match r with
  | Pong token ->
      let w = start 0x81 8 in
      put_i64 w token;
      contents w
  | Tm { bin; level; n; values } ->
      if Array.length values <> n * n then
        invalid_arg "Wire: Tm frame needs n*n values";
      check_u32 bin;
      check_u16 n;
      let w = start 0x82 (7 + (8 * n * n)) in
      put_u32 w bin;
      put_u8 w level;
      put_u16 w n;
      put_floats w values;
      contents w
  | Flow { bin; level; value } ->
      check_u32 bin;
      let w = start 0x83 13 in
      put_u32 w bin;
      put_u8 w level;
      put_f64 w value;
      contents w
  | Topology_info { nodes; links } ->
      check_u16 (Array.length nodes);
      check_u32 links;
      let len = Array.fold_left (fun n s -> n + str_size s) 6 nodes in
      let w = start 0x84 len in
      put_u16 w (Array.length nodes);
      put_u32 w links;
      Array.iter (put_str w) nodes;
      contents w
  | Whatif_load { bin; scale; loads } ->
      check_u32 bin;
      check_u32 (Array.length loads);
      let w = start 0x85 (16 + (8 * Array.length loads)) in
      put_u32 w bin;
      put_f64 w scale;
      put_u32 w (Array.length loads);
      put_floats w loads;
      contents w
  | Shed scope ->
      let w = start 0x90 1 in
      put_u8 w (match scope with Connection -> 0 | Request -> 1);
      contents w
  | Error { code; message } ->
      let w = start 0x91 (1 + str_size message) in
      put_u8 w (error_code_tag code);
      put_str w message;
      contents w

(* --- binary decoding --------------------------------------------------- *)

exception Bad of string

(* A cursor reads a payload where it lies: in a decoded string, or in a
   connection reader's buffer. [need] checks each field's or array's
   length once. *)
type cursor = { s : Bytes.t; mutable pos : int; limit : int }

let need c n =
  if c.pos + n > c.limit then raise (Bad "truncated payload")

let get_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.s c.pos in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = Bytes.get_uint16_be c.s c.pos in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_be c.s c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = Bytes.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_f64 c = Int64.float_of_bits (get_i64 c)

let get_str c =
  let len = get_u16 c in
  need c len;
  let s = Bytes.sub_string c.s c.pos len in
  c.pos <- c.pos + len;
  s

let get_floats c count =
  (* The count was validated against the payload length by the caller, so
     this allocation is bounded by the frame size limit. *)
  need c (8 * count);
  let a = Array.create_float count in
  let s = c.s and pos = c.pos in
  for i = 0 to count - 1 do
    Array.unsafe_set a i
      (Int64.float_of_bits (unsafe_get_int64_be s (pos + (8 * i))))
  done;
  c.pos <- pos + (8 * count);
  a

let magic_bits = String.get_int32_be magic 0

let magic_ok b off = Bytes.get_int32_be b off = magic_bits

(* The payload length a header at [off] declares. *)
let header_length b off =
  Int32.to_int (Bytes.get_int32_be b (off + 5)) land 0xffffffff

let split_frame s =
  let b = Bytes.unsafe_of_string s in
  if Bytes.length b < header_len then Result.error "truncated header"
  else if not (magic_ok b 0) then Result.error "bad magic"
  else if Bytes.length b - header_len <> header_length b 0 then
    Result.error "frame length mismatch"
  else
    Result.ok
      (Bytes.get_uint8 b 4, { s = b; pos = header_len; limit = Bytes.length b })

let finish c v =
  if c.pos <> c.limit then Result.error "trailing bytes in payload"
  else Result.ok v

let request_of_payload tag c =
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

let response_of_payload tag c =
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

let decode_request s =
  match split_frame s with
  | Error e -> Result.error e
  | Ok (tag, c) -> request_of_payload tag c

let decode_response s =
  match split_frame s with
  | Error e -> Result.error e
  | Ok (tag, c) -> response_of_payload tag c

(* --- JSON fallback ----------------------------------------------------- *)

module Json = struct
  type v =
    | S of string
    | N of float
    | B of bool
    | Null
    | A of v list  (* arrays of scalars only *)

  let buf_escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let buf_float buf f =
    (* JSON has no literal for non-finite numbers; the binary protocol is
       the canonical codec, the JSON fallback maps them to strings. *)
    if Float.is_nan f then Buffer.add_string buf "\"nan\""
    else if f = Float.infinity then Buffer.add_string buf "\"inf\""
    else if f = Float.neg_infinity then Buffer.add_string buf "\"-inf\""
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)

  let rec buf_v buf = function
    | S s -> buf_escape buf s
    | N f -> buf_float buf f
    | B b -> Buffer.add_string buf (if b then "true" else "false")
    | Null -> Buffer.add_string buf "null"
    | A vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            buf_v buf v)
          vs;
        Buffer.add_char buf ']'

  let obj fields =
    let buf = Buffer.create 64 in
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        buf_escape buf k;
        Buffer.add_char buf ':';
        buf_v buf v)
      fields;
    Buffer.add_char buf '}';
    Buffer.contents buf

  (* A deliberately small parser: one flat object whose values are strings,
     numbers, booleans, null, or arrays of those. Nested objects are
     rejected — the fallback protocol never produces them. *)
  exception Bad_json of string

  type p = { src : string; mutable i : int }

  let peek p = if p.i < String.length p.src then Some p.src.[p.i] else None

  let advance p = p.i <- p.i + 1

  let skip_ws p =
    let continue = ref true in
    while !continue do
      match peek p with
      | Some (' ' | '\t' | '\n' | '\r') -> advance p
      | _ -> continue := false
    done

  let expect p ch =
    skip_ws p;
    match peek p with
    | Some c when c = ch -> advance p
    | Some c -> raise (Bad_json (Printf.sprintf "expected %c, got %c" ch c))
    | None -> raise (Bad_json (Printf.sprintf "expected %c, got end" ch))

  let utf8_of_code buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end

  let parse_string p =
    expect p '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek p with
      | None -> raise (Bad_json "unterminated string")
      | Some '"' -> advance p
      | Some '\\' -> begin
          advance p;
          (match peek p with
          | Some '"' -> Buffer.add_char buf '"'; advance p
          | Some '\\' -> Buffer.add_char buf '\\'; advance p
          | Some '/' -> Buffer.add_char buf '/'; advance p
          | Some 'b' -> Buffer.add_char buf '\b'; advance p
          | Some 'f' -> Buffer.add_char buf '\012'; advance p
          | Some 'n' -> Buffer.add_char buf '\n'; advance p
          | Some 'r' -> Buffer.add_char buf '\r'; advance p
          | Some 't' -> Buffer.add_char buf '\t'; advance p
          | Some 'u' ->
              advance p;
              if p.i + 4 > String.length p.src then
                raise (Bad_json "bad \\u escape");
              let hex = String.sub p.src p.i 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> raise (Bad_json "bad \\u escape")
              in
              p.i <- p.i + 4;
              utf8_of_code buf code
          | _ -> raise (Bad_json "bad escape"));
          loop ()
        end
      | Some c ->
          advance p;
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf

  let parse_literal p lit v =
    if
      p.i + String.length lit <= String.length p.src
      && String.sub p.src p.i (String.length lit) = lit
    then begin
      p.i <- p.i + String.length lit;
      v
    end
    else raise (Bad_json ("bad literal near " ^ lit))

  let parse_number p =
    let start = p.i in
    let continue = ref true in
    while !continue do
      match peek p with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance p
      | _ -> continue := false
    done;
    if p.i = start then raise (Bad_json "expected a number");
    match float_of_string_opt (String.sub p.src start (p.i - start)) with
    | Some f -> f
    | None -> raise (Bad_json "malformed number")

  let rec parse_value ~depth p =
    skip_ws p;
    match peek p with
    | Some '"' -> S (parse_string p)
    | Some 't' -> parse_literal p "true" (B true)
    | Some 'f' -> parse_literal p "false" (B false)
    | Some 'n' -> parse_literal p "null" Null
    | Some '[' ->
        if depth > 0 then raise (Bad_json "nested arrays rejected");
        advance p;
        skip_ws p;
        if peek p = Some ']' then begin
          advance p;
          A []
        end
        else begin
          let items = ref [ parse_value ~depth:(depth + 1) p ] in
          let continue = ref true in
          while !continue do
            skip_ws p;
            match peek p with
            | Some ',' ->
                advance p;
                items := parse_value ~depth:(depth + 1) p :: !items
            | Some ']' ->
                advance p;
                continue := false
            | _ -> raise (Bad_json "bad array")
          done;
          A (List.rev !items)
        end
    | Some '{' -> raise (Bad_json "nested objects rejected")
    | Some ('0' .. '9' | '-') -> N (parse_number p)
    | _ -> raise (Bad_json "bad value")

  let parse_obj s =
    try
      let p = { src = s; i = 0 } in
      expect p '{';
      skip_ws p;
      let fields = ref [] in
      (if peek p = Some '}' then advance p
       else begin
         let continue = ref true in
         while !continue do
           skip_ws p;
           let k = parse_string p in
           expect p ':';
           let v = parse_value ~depth:0 p in
           fields := (k, v) :: !fields;
           skip_ws p;
           match peek p with
           | Some ',' -> advance p
           | Some '}' ->
               advance p;
               continue := false
           | _ -> raise (Bad_json "bad object")
         done
       end);
      skip_ws p;
      if p.i <> String.length p.src then Result.error "trailing JSON bytes"
      else Result.ok (List.rev !fields)
    with Bad_json e -> Result.error e
end

let json_find fields k = List.assoc_opt k fields

let json_string fields k =
  match json_find fields k with Some (Json.S s) -> Some s | _ -> None

let json_number fields k =
  match json_find fields k with
  | Some (Json.N f) -> Some f
  | Some (Json.S "nan") -> Some Float.nan
  | Some (Json.S "inf") -> Some Float.infinity
  | Some (Json.S "-inf") -> Some Float.neg_infinity
  | _ -> None

let json_int fields k =
  match json_number fields k with
  | Some f when Float.is_integer f && Float.abs f < 1e9 -> Some (int_of_float f)
  | _ -> None

let request_of_json line =
  match Json.parse_obj line with
  | Error e -> Result.error e
  | Ok fields -> begin
      let tenant = Option.value ~default:"" (json_string fields "tenant") in
      match json_string fields "t" with
      | Some "ping" -> begin
          (* The token is an exact decimal string: a JSON number would
             round through float and corrupt tokens above 2^53. *)
          match json_string fields "token" with
          | Some s -> (
              match Int64.of_string_opt s with
              | Some token -> Result.ok (Ping token)
              | None -> Result.error "ping token must be a decimal int64")
          | None -> Result.ok (Ping 0L)
        end
      | Some "latest-tm" -> Result.ok (Latest_tm { tenant })
      | Some "od" -> begin
          match (json_int fields "src", json_int fields "dst") with
          | Some src, Some dst when src >= 0 && dst >= 0 && src <= 0xffff && dst <= 0xffff ->
              Result.ok (Od_flow { tenant; src; dst })
          | _ -> Result.error "od needs integer src and dst"
        end
      | Some "topo" -> Result.ok (Topology { tenant })
      | Some "whatif" -> begin
          match json_number fields "scale" with
          | Some scale -> Result.ok (Whatif { tenant; scale })
          | None -> Result.error "whatif needs a scale"
        end
      | Some t -> Result.error ("unknown request type " ^ t)
      | None -> Result.error "missing request type field \"t\""
    end

let json_of_request r =
  let open Json in
  (match r with
  | Ping token -> [ ("t", S "ping"); ("token", S (Int64.to_string token)) ]
  | Latest_tm { tenant } -> [ ("t", S "latest-tm"); ("tenant", S tenant) ]
  | Od_flow { tenant; src; dst } ->
      [
        ("t", S "od");
        ("tenant", S tenant);
        ("src", N (float_of_int src));
        ("dst", N (float_of_int dst));
      ]
  | Topology { tenant } -> [ ("t", S "topo"); ("tenant", S tenant) ]
  | Whatif { tenant; scale } ->
      [ ("t", S "whatif"); ("tenant", S tenant); ("scale", N scale) ])
  |> obj

let json_of_response r =
  let open Json in
  (match r with
  | Pong token -> [ ("t", S "pong"); ("token", S (Int64.to_string token)) ]
  | Tm { bin; level; n; values } ->
      [
        ("t", S "tm");
        ("bin", N (float_of_int bin));
        ("level", N (float_of_int level));
        ("n", N (float_of_int n));
        ("values", A (Array.to_list (Array.map (fun v -> N v) values)));
      ]
  | Flow { bin; level; value } ->
      [
        ("t", S "flow");
        ("bin", N (float_of_int bin));
        ("level", N (float_of_int level));
        ("value", N value);
      ]
  | Topology_info { nodes; links } ->
      [
        ("t", S "topo");
        ("nodes", A (Array.to_list (Array.map (fun s -> S s) nodes)));
        ("links", N (float_of_int links));
      ]
  | Whatif_load { bin; scale; loads } ->
      [
        ("t", S "whatif");
        ("bin", N (float_of_int bin));
        ("scale", N scale);
        ("loads", A (Array.to_list (Array.map (fun v -> N v) loads)));
      ]
  | Shed scope ->
      [
        ("t", S "shed");
        ("scope", S (match scope with Connection -> "connection" | Request -> "request"));
      ]
  | Error { code; message } ->
      [
        ("t", S "error");
        ("code", S (error_code_name code));
        ("message", S message);
      ])
  |> obj

let response_kind_of_json line =
  match Json.parse_obj line with
  | Error e -> Result.error e
  | Ok fields -> begin
      match json_string fields "t" with
      | Some t -> Result.ok t
      | None -> Result.error "missing response type"
    end

(* --- HTTP (metrics endpoint) ------------------------------------------- *)

let http_response ~status ~body =
  let reason = match status with 200 -> "OK" | 404 -> "Not Found" | _ -> "Error" in
  Printf.sprintf
    "HTTP/1.0 %d %s\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status reason (String.length body) body

(* --- buffered connection reader ---------------------------------------- *)

(* The buffer holds the bytes read but not yet consumed, at [start], [len]
   of them. A message longer than the buffer grows it to the message's
   size, bounded by a cap the caller has already checked; the buffer
   returns to [buffer_size] once it is drained. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
}

let buffer_size = 65536

let reader fd = { fd; buf = Bytes.create buffer_size; start = 0; len = 0 }

type incoming =
  | Bin_request of request
  | Json_request of request
  | Http_get of string
  | Closed
  | Timed_out
  | Too_large
  | Malformed of string
  | Json_malformed of string

exception Conn_closed
exception Conn_timeout

(* Room for [n] bytes from [start]: slide the buffered bytes to the front,
   into a buffer of [n] bytes if this one is shorter. *)
let reserve r n =
  if r.start + n > Bytes.length r.buf then begin
    let buf = if n > Bytes.length r.buf then Bytes.create n else r.buf in
    Bytes.blit r.buf r.start buf 0 r.len;
    r.buf <- buf;
    r.start <- 0
  end

(* One read into the free space after the buffered bytes. *)
let refill r =
  let off = r.start + r.len in
  let n =
    try Unix.read r.fd r.buf off (Bytes.length r.buf - off) with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise Conn_timeout
    | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        raise Conn_closed
  in
  if n = 0 then raise Conn_closed;
  r.len <- r.len + n

(* Buffer at least [n] bytes from [start]. *)
let fill r n =
  if r.len < n then begin
    reserve r n;
    while r.len < n do
      refill r
    done
  end

let consume r n =
  r.start <- r.start + n;
  r.len <- r.len - n;
  if r.len = 0 then begin
    r.start <- 0;
    if Bytes.length r.buf > buffer_size then r.buf <- Bytes.create buffer_size
  end

let peek_byte r =
  fill r 1;
  Bytes.get r.buf r.start

(* Read up to and including a '\n', at most [max] bytes before it. *)
let read_line r ~max =
  let rec find_nl from =
    let rec scan i =
      if i >= r.start + r.len then None
      else if Bytes.get r.buf i = '\n' then Some (i - r.start)
      else scan (i + 1)
    in
    match scan (r.start + from) with
    | Some off -> off
    | None ->
        if r.len > max then raise (Bad "line too long");
        let before = r.len in
        (* Room for one more byte: slide to the front, or double the
           buffer (up to a whole line and its newline) when it is full. *)
        if r.start + r.len = Bytes.length r.buf then
          reserve r
            (if r.len < Bytes.length r.buf then r.len + 1
             else Stdlib.min (max + 1) (2 * r.len));
        refill r;
        find_nl before
  in
  let off = find_nl 0 in
  if off > max then raise (Bad "line too long");
  let line = Bytes.sub_string r.buf r.start (off + 1) in
  consume r (off + 1);
  line

(* Read a frame header: its tag and declared payload length. *)
let read_header r =
  fill r header_len;
  let ok = magic_ok r.buf r.start in
  let tag = Bytes.get_uint8 r.buf (r.start + 4) in
  let len = header_length r.buf r.start in
  consume r header_len;
  if not ok then raise (Bad "bad magic");
  (tag, len)

(* Decode a [len]-byte payload where it lies in the buffer. *)
let read_payload r len decode =
  fill r len;
  let v = decode { s = r.buf; pos = r.start; limit = r.start + len } in
  consume r len;
  v

let next ?(max_frame = default_max_frame) r =
  try
    match peek_byte r with
    | 'G' -> begin
        (* "GET <path> HTTP/1.x" then headers until a blank line. *)
        let line = read_line r ~max:1024 in
        match String.split_on_char ' ' (String.trim line) with
        | "GET" :: path :: _ ->
            let rec drain_headers budget =
              if budget <= 0 then raise (Bad "header block too long");
              let h = String.trim (read_line r ~max:1024) in
              if h <> "" then drain_headers (budget - 1)
            in
            drain_headers 64;
            Http_get path
        | _ -> Malformed "bad http request line"
      end
    | '{' -> begin
        let line = read_line r ~max:65536 in
        match request_of_json (String.trim line) with
        | Ok req -> Json_request req
        | Error e -> Json_malformed ("bad json request: " ^ e)
      end
    | 'I' -> begin
        let tag, len = read_header r in
        (* The length is checked against the cap BEFORE any allocation
           proportional to it: an adversarial 4 GB declaration costs the
           server one header read, not a heap spike. *)
        if len > max_frame then Too_large
        else
          match read_payload r len (request_of_payload tag) with
          | Ok req -> Bin_request req
          | Error e -> Malformed e
      end
    | _ -> Malformed "bad magic"
  with
  | Conn_closed -> Closed
  | Conn_timeout -> Timed_out
  | Bad e -> Malformed e

(* Client-side: read one response (binary or JSON kind tag only). *)
let read_response ?(max_frame = default_max_frame) r =
  try
    match peek_byte r with
    | '{' -> begin
        let line = read_line r ~max:(max_frame + 1024) in
        match response_kind_of_json (String.trim line) with
        | Ok kind -> `Json kind
        | Error e -> `Malformed e
      end
    | 'I' -> begin
        let tag, len = read_header r in
        if len > max_frame then `Malformed "oversized response"
        else
          match read_payload r len (response_of_payload tag) with
          | Ok resp -> `Response resp
          | Error e -> `Malformed e
      end
    | _ -> `Malformed "bad magic"
  with
  | Conn_closed -> `Closed
  | Conn_timeout -> `Timed_out
  | Bad e -> `Malformed e

(* --- writing ----------------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then begin
      let n = Unix.write fd b off (len - off) in
      go (off + n)
    end
  in
  go 0
