(** In-process counters and per-stage duration histograms for the
    streaming engine.

    Counters are deterministic functions of the observation stream (poll
    counts, degradations, clamped entries, ...) and round-trip through
    checkpoints. Stage durations are wall time and therefore {e not} part
    of the engine's determinism contract: they live only in the metrics
    registry, as [<stage>_duration_ns] histograms, and never in checkpoints
    or dumps. The engine records them through [Ic_obs.Trace.stage] with
    this sink's {!clock} and {!stage} histogram.

    {b Concurrency contract — single writer per sink.} A telemetry sink is
    plain mutable state with no internal locking. The sharded runtime
    gives every {!Engine} its own sink, and only the domain currently
    stepping that engine may write to it ({!incr}/{!add}/{!stage}); that
    single-writer-per-engine rule is what makes the sharded path safe
    without a lock on the hot path. Cross-shard aggregation never shares a
    sink: it reads each shard's counters after the parallel region and
    merges them with {!merged}, whose output is sorted by counter name and
    therefore independent of shard scheduling or enumeration order. *)

type t

val create : ?clock:(unit -> float) -> ?registry:Ic_obs.Metrics.t -> unit -> t
(** A fresh telemetry sink. [clock] returns seconds (default
    [Ic_obs.Clock.now]; injectable for deterministic tests). [registry]
    (default: a fresh one) lets a host share one metrics registry between
    the engine's telemetry and its own instruments — the serving layer
    registers its per-query counters next to the engine's so one scrape
    shows both planes. The single-writer rule applies per instrument, not
    per registry; the registry itself is domain-safe. *)

val registry : t -> Ic_obs.Metrics.t
(** The metrics registry backing this sink. Counters appear as Prometheus
    counters under their (sanitized) telemetry names; each stage appears
    as a [<stage>_duration_ns] histogram. [Ic_obs.Metrics.expose] on this
    registry is how [ic-lab metrics] and [ic-lab stream --telemetry full]
    render a sink. *)

val clock : t -> unit -> float
(** The sink's clock: the one its stage histograms are timed with. *)

val stage : ?help:string -> t -> string -> Ic_obs.Metrics.histogram
(** [stage t name] is the [<name>_duration_ns] histogram (nanoseconds,
    {!Ic_obs.Metrics.default_duration_buckets}), created on first use with
    [help] as its HELP text (default: "wall-clock duration of the <name>
    stage"). *)

val incr : t -> string -> unit
(** Add 1 to a named counter (created at 0 on first use). *)

val add : t -> string -> int -> unit
(** Raises [Invalid_argument] on a negative increment: telemetry counters
    are monotone (use a [Ic_obs.Metrics] gauge for signed values). *)

val count : t -> string -> int
(** Current value of a counter; 0 if never touched. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val set_counters : t -> (string * int) list -> unit
(** Replace all counters — checkpoint restore. Stage histograms are left
    as they are. *)

val dump : t -> string
(** Human-readable, deterministic counter dump, sorted by name. *)

(** {2 Multi-sink aggregation} *)

val merged : (string * t) list -> (string * int) list
(** [merged sinks] sums same-named counters across the given (label, sink)
    pairs and returns them sorted by counter name. Integer addition is
    commutative, so the result is independent of the order of [sinks] —
    the property that makes multi-shard dumps deterministic. *)

val merged_dump : (string * t) list -> string
(** Deterministic multi-shard dump: the merged totals (sorted by counter
    name) followed by one per-shard counter section per sink, sections
    sorted by shard label. *)
