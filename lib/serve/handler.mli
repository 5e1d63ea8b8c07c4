(** Query answering, independent of any socket: the pure part of the
    serving plane.

    One handler fronts a set of tenants, each a {!Source}. Everything it
    does is observable — every request lands in [serve.requests] plus a
    per-kind [serve.query.<kind>] counter and the
    [serve_request_duration_ns] power-of-two histogram (the same bucket
    family as engine stage durations), and each answered request runs
    inside a [serve.request] span with a [type] attribute when a tracer is
    supplied — one [Ic_obs.Trace.stage] call feeds both. The server layer reports its transport-side events
    ({!note_shed}, {!note_timeout}, ...) into the same registry, so one
    scrape shows the whole serving plane. *)

type t

val create :
  ?tracer:Ic_obs.Trace.t ->
  ?clock:(unit -> float) ->
  ?registry:Ic_obs.Metrics.t ->
  (string * Source.t) list ->
  t
(** [create sources] builds a handler for the given [(tenant, source)]
    pairs; the first pair is the default tenant (requests with an empty
    tenant string route to it). Raises [Invalid_argument] on an empty
    list.

    [registry] (default: fresh) hosts the serve-plane instruments —
    passing the registry already shared with an engine's
    {!Ic_runtime.Telemetry} puts both planes in one scrape body. [clock]
    (default [Ic_obs.Clock.now], the monotonic wall clock) feeds the
    duration histogram; injectable for deterministic tests. *)

val registry : t -> Ic_obs.Metrics.t

val handle : t -> Wire.request -> Wire.response
(** Answer one request. Total: malformed semantics (unknown tenant, OD out
    of range, non-finite scale, no published bin) come back as
    [Wire.Error] responses, never exceptions. *)

val metrics_body : t -> string
(** The [GET /metrics] body: this handler's registry exposed. Counted as
    a [metrics] query. *)

(** {1 Transport-side accounting}

    Called by the server (or load generator harnesses) so socket-level
    events land in the shared registry next to query counters. *)

val note_shed : t -> Wire.shed_scope -> unit
(** Increment [serve.shed.connection] or [serve.shed.request]. *)

val note_malformed : t -> unit
val note_timeout : t -> unit
val note_connection : t -> unit

val counters : t -> (string * int) list
(** All counters in the handler's registry, sorted by name. *)
