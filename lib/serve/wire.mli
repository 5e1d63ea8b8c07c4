(** The serving layer's wire protocol.

    Three encodings share one listening socket, sniffed from the first byte
    of each request:

    - ['I'] — the canonical {b binary} protocol. Frames are
      [magic "ICP1" | tag u8 | payload length u32 BE | payload]; integers
      are big-endian, floats travel as their IEEE-754 bit patterns
      ([Int64.bits_of_float]) so NaN payloads and signed infinities
      round-trip exactly; strings are [u16] length-prefixed bytes.
    - ['{'] — a newline-delimited {b JSON} fallback for humans and scripts
      ([{"t":"latest-tm"}] on one line). Non-finite floats map to the
      strings ["nan"]/["inf"]/["-inf"], so this encoding is lossy on NaN
      bit patterns — the binary protocol is the one under qcheck round-trip
      coverage.
    - ['G'] — plaintext {b HTTP GET}, accepted only so [GET /metrics]
      works from stock Prometheus scrapers and [curl]; the connection
      closes after one response.

    Each frame is written once, into a string of its exact size, and read
    with one length check per field or array; the connection reader
    decodes a payload where it lies in its buffer.

    Robustness contract: a frame's declared length is validated against
    {!default_max_frame} (or the caller's cap) {e before} any allocation
    proportional to it, truncated or trailing payload bytes are rejected,
    and every malformed input surfaces as a value ([Malformed]/[Result]) —
    never an exception escaping the decoder. Within their caps, frames and
    JSON lines of any length are read whole: the reader's 64 KiB buffer
    grows for a longer message and shrinks back once it is consumed. *)

val magic : string
(** ["ICP1"]. *)

val header_len : int
(** Bytes before the payload: magic + tag + length = 9. *)

val default_max_frame : int
(** 4 MiB — comfortably above the largest legitimate frame (a TM response
    for a few hundred PoPs) and far below an allocation-exhaustion frame. *)

(** Machine-readable reason carried by an [Error] response. *)
type error_code =
  | Bad_request  (** malformed or unparseable request *)
  | Unknown_tenant  (** no engine registered under that tenant name *)
  | No_estimate  (** the engine has not published a bin yet *)
  | Bad_od  (** OD endpoints outside [0 .. n-1] *)
  | Frame_too_large  (** declared length above the server's cap *)
  | Draining  (** server is shutting down; queued work is refused *)

type shed_scope =
  | Connection  (** accept queue full: the whole connection was refused *)
  | Request  (** per-connection inflight cap hit: retry this request *)

type request =
  | Ping of int64  (** liveness probe; the token echoes back *)
  | Latest_tm of { tenant : string }
  | Od_flow of { tenant : string; src : int; dst : int }
  | Topology of { tenant : string }
  | Whatif of { tenant : string; scale : float }
      (** reprovisioning probe: link loads if the latest TM were scaled *)

type response =
  | Pong of int64
  | Tm of { bin : int; level : int; n : int; values : float array }
      (** [values] is the row-major [n*n] TM; [level] is the degrade-ladder
          rank the estimate was produced at *)
  | Flow of { bin : int; level : int; value : float }
  | Topology_info of { nodes : string array; links : int }
  | Whatif_load of { bin : int; scale : float; loads : float array }
      (** per-link loads (physical edges only, no marginal rows) *)
  | Shed of shed_scope
  | Error of { code : error_code; message : string }

val request_kind : request -> string
(** Stable lowercase name ([ping], [latest_tm], ...) — the label used for
    per-query-type counters and span attributes. *)

val response_kind : response -> string

(** {1 Binary codec} *)

val encode_request : request -> string
(** A complete frame, header included. Raises [Invalid_argument] when a
    field is out of its range: a [u16] or [u32] outside it, a string
    longer than 0xffff bytes, or a [Tm] whose [values] are not [n * n]. *)

val encode_response : response -> string

val decode_request : string -> (request, string) result
(** Decode a complete frame. Rejects bad magic, unknown tags, truncated or
    trailing payload bytes, and length/header mismatches. *)

val decode_response : string -> (response, string) result

(** {1 JSON fallback} *)

val request_of_json : string -> (request, string) result
(** Parse one JSON object line, e.g.
    [{"t":"od","tenant":"","src":1,"dst":2}]. Types: [ping], [latest-tm],
    [od], [topo], [whatif]. *)

val json_of_request : request -> string
(** One-line JSON object (no trailing newline). *)

val json_of_response : response -> string

(** {1 HTTP} *)

val http_response : status:int -> body:string -> string
(** A complete [HTTP/1.0] response with [Content-Length] and
    [Connection: close]. *)

(** {1 Buffered connection reader} *)

type reader

val reader : Unix.file_descr -> reader
(** A buffered reader over a connected socket. Read timeouts are expected
    to be armed by the caller via [SO_RCVTIMEO]; the resulting
    [EAGAIN]/[EWOULDBLOCK] surfaces as [Timed_out]. *)

type incoming =
  | Bin_request of request
  | Json_request of request  (** respond in JSON *)
  | Http_get of string  (** the request path; respond HTTP and close *)
  | Closed  (** peer closed the connection *)
  | Timed_out  (** read timeout elapsed mid-request *)
  | Too_large  (** declared frame length above [max_frame]; no payload
                   allocation was made *)
  | Malformed of string
  | Json_malformed of string
      (** an unparseable ['{']-sniffed line: the peer speaks JSON, so the
          error reply must be JSON too *)

val next : ?max_frame:int -> reader -> incoming
(** Sniff and read one complete request: a frame of up to [max_frame]
    payload bytes (default {!default_max_frame}), a JSON line of up to
    64 KiB, or an HTTP request line and headers of up to 1 KiB each.
    Never raises. *)

val read_response :
  ?max_frame:int ->
  reader ->
  [ `Response of response
  | `Json of string  (** response kind *)
  | `Closed
  | `Timed_out
  | `Malformed of string ]
(** Client side: read one complete response: a frame of up to
    [max_frame] payload bytes, or a JSON line of up to [max_frame + 1024]
    bytes. Never raises. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes. Raises
    [Unix.Unix_error] (e.g. [EPIPE], [EAGAIN] on send timeout) — callers
    treat any write failure as a dead connection. *)
