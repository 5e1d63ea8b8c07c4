(** Typed metrics registry with Prometheus-style text exposition.

    Three instrument kinds, all keyed by name within a registry:

    - {b counters} — monotone integer totals ([polls.dropped]). These are
      the deterministic part of runtime telemetry: they are checkpointed
      and compared across shard configurations.
    - {b gauges} — floats that go up and down ([degrade.level]).
    - {b histograms} — fixed-bucket latency distributions ([stage
      durations]), cumulative in exposition as Prometheus expects.

    Registries are domain-safe (one mutex per registry); individual
    operations are O(1) after the handle is looked up, so hot paths should
    hold handles rather than re-looking-up by name.

    Exposition ({!expose}) follows the Prometheus text format: metric
    names are sanitized to [[a-zA-Z_:][a-zA-Z0-9_:]*] (every other byte
    becomes ['_']), families are sorted by sanitized name, and each family
    carries [# HELP] / [# TYPE] headers. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> ?help:string -> string -> counter
(** Find-or-create. The returned handle is stable for the registry's
    lifetime. [help] is only applied on first creation. *)

val inc : counter -> unit
val add : counter -> int -> unit
(** [add c n] with [n < 0] raises [Invalid_argument]: counters are
    monotone. Use a gauge for signed quantities. *)

val set_counter : counter -> int -> unit
(** Overwrite the value — for checkpoint restore only; not exposed to
    normal instrumentation call sites. *)

val counter_value : counter -> int

val find_counter : t -> string -> counter option
(** Lookup {e without} creating — reads must not invent series. *)

val counters : t -> (string * int) list
(** Sorted by (original, unsanitized) name. *)

val remove_counter : t -> string -> unit

(** {1 Gauges} *)

type gauge

val gauge : t -> ?help:string -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float
val gauges : t -> (string * float) list

(** {1 Histograms} *)

type histogram

val default_duration_buckets : float array
(** Powers of two from 1 ns to 2{^62} ns (bound [i] is 2{^i}): the bucket
    family of every duration histogram, engine stages and served requests
    alike, so all latency distributions read the same way. *)

val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram
(** [buckets] are upper bounds, strictly increasing (defaults to
    {!default_duration_buckets}); a [+Inf] bucket is implicit. Raises
    [Invalid_argument] on an empty or non-increasing bucket array.
    Find-or-create; [buckets] is only applied on first creation. *)

val observe : histogram -> float -> unit

type hist_snapshot = {
  h_buckets : (float * int) list;  (** (upper bound, cumulative count) *)
  h_sum : float;
  h_count : int;
}

val histogram_snapshot : histogram -> hist_snapshot
val histograms : t -> (string * hist_snapshot) list

(** {1 Exposition} *)

val sanitize_name : string -> string
(** Map to a legal Prometheus metric name; [""] becomes ["_"]. *)

val expose : t -> string
(** Prometheus text exposition of every registered instrument. *)
