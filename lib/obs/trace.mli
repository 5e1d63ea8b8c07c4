(** Span-based tracing for the estimation hot paths.

    A tracer collects {e spans} — named, timed regions of execution with
    parent/child nesting — into a fixed-capacity ring buffer and exports
    them as JSON Lines for offline analysis (`ic-lab ... --trace out.jsonl`).

    Design constraints, in priority order:

    + {b The disabled path costs (almost) nothing.} {!noop} is a tracer
      whose {!with_span} is one field load, one branch, and the call of the
      thunk. Every hot path in the library threads a tracer that defaults
      to {!noop}, so production runs without [--trace] execute the same
      instructions as before the tracer existed (guarded by the
      [obs/engine-per-bin-traced-off] bench).
    + {b Numerics are untouchable.} A tracer only ever observes; enabling
      or disabling tracing never changes a single estimated byte
      (qcheck-pinned in [test_obs.ml]).
    + {b Safe across domains.} Span {e recording} is serialized by a
      per-tracer mutex; span {e nesting} is tracked per domain (domain-local
      state), so pool workers can trace concurrently without corrupting
      each other's ancestry. Span ids are process-global, which keeps
      parent references valid even when several tracers are in play.

    Timestamps come from the injected clock (default {!Clock.now}, the
    monotonic wall clock), are expressed in nanoseconds relative to tracer
    creation, and are clamped per tracer per domain so they never run
    backwards even under an injected clock that steps (per tracer because
    two tracers have different epochs: sharing a floor would zero out a
    younger tracer's durations).
    Spans are recorded on {e completion}, so a parent appears after its
    children in the buffer — the usual exporter convention; consumers
    re-link by [parent] id. *)

type span = {
  id : int;  (** process-globally unique *)
  parent : int;  (** id of the enclosing span, [-1] for roots *)
  depth : int;  (** nesting depth, [0] for roots *)
  name : string;
  start_ns : float;  (** nanoseconds since tracer creation *)
  dur_ns : float;  (** always [>= 0.] *)
  attrs : (string * string) list;
}

type t

val noop : t
(** The disabled tracer: records nothing, allocates nothing, and makes
    {!with_span} a branch plus a call. The default everywhere. *)

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** An enabled tracer retaining the last [capacity] (default 4096)
    completed spans. [clock] returns seconds (injectable for deterministic
    tests; default {!Clock.now}). Raises [Invalid_argument] if
    [capacity < 1]. *)

val enabled : t -> bool

val now_ns : t -> float
(** Nanoseconds since tracer creation, clamped monotone per domain.
    [0.] on a disabled tracer. Exposed so hosts (the pool's per-slot
    queue-wait accounting) can share the tracer's clock. *)

val with_span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f ()] inside a span called [name]. The span
    is recorded when [f] returns {e or raises} (the exception is
    re-raised). On {!noop} this is exactly [f ()]. *)

val stage :
  t ->
  ?attrs:(string * string) list ->
  string ->
  clock:(unit -> float) ->
  Metrics.histogram ->
  (unit -> 'a) ->
  'a
(** [stage t name ~clock hist f] is one instrumented stage: [f ()] runs
    inside a span [name] (as {!with_span}), and its duration in
    nanoseconds, read from the histogram owner's [clock] (seconds) just
    before and after [f] inside the span, is observed into [hist] (floored
    at 0). If [f] raises, the span is recorded and [hist] is not. *)

val spans : t -> span list
(** Retained spans, oldest first. At most [capacity]. *)

val recorded : t -> int
(** Total spans ever completed, including ones the ring has evicted. *)

val dropped : t -> int
(** [max 0 (recorded - capacity)]: spans lost to ring eviction. *)

val to_jsonl : t -> string
(** One JSON object per line, oldest span first, fields in a fixed order:
    [name], [id], [parent], [depth], [start_ns], [dur_ns], [attrs]. *)

val export_jsonl : path:string -> t -> int
(** Write {!to_jsonl} to [path] (truncating) and return the number of
    spans written. *)
