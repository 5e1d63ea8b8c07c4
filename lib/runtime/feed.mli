(** A live observation feed for the engine: replay a TM series as the
    sequence of link-load polls an operator's collector would deliver,
    with injected faults.

    Per bin the true loads [Y = R x(t)] go through an
    {!Ic_topology.Snmp.stream} (per-poll noise, dropped polls), then the
    corruptor flips surviving polls to garbage (a strictly negative value,
    the way a wrapped or torn counter read manifests) with probability
    [corrupt_rate]. Dropped polls are reported in the [missing] flags;
    corrupt polls are {e not} — detecting them is the engine's job.

    The feed is deterministic from its seed, and a fresh feed with the same
    inputs replays the identical stream — which is how a resumed engine is
    fed the exact observations it would have seen had it never died. *)

(** Open-loop workload schedules: Poisson arrivals (exponential
    inter-arrival times) marked with flow sizes drawn from an empirical
    CDF by inverse piecewise-linear interpolation — the standard open-loop
    datacenter load-generator recipe. One schedule seed derives three
    jump-ahead {!Ic_prng.Rng.split} substreams (inter-arrivals, sizes, and
    a consumer stream for OD assignment), so replays are deterministic and
    the three processes never perturb each other. Shared by the feed's
    [?openloop] overlay ([ic-lab stream --open-loop]) and the serving
    layer's load generator ([ic-lab loadgen]). *)
module Openloop : sig
  type cdf

  val dctcp : cdf
  (** The DCTCP empirical flow-size CDF (1M-sample production trace): 15%
      of flows under 10 kB, a heavy tail out to 30 MB. *)

  val quantile : cdf -> float -> float
  (** Inverse-CDF by linear interpolation; raises [Invalid_argument]
      outside [0, 1]. *)

  val mean_size : cdf -> float
  (** Mean flow size of the piecewise-linear distribution, bytes. *)

  type event = { time : float;  (** seconds since schedule start *)
                 size : float  (** flow size, bytes *) }

  val arrivals : ?cdf:cdf -> rate:float -> count:int -> seed:int -> unit -> event array
  (** Exactly [count] Poisson arrivals at [rate] per second (open-ended
      duration). [cdf] defaults to {!dctcp}. *)

  val schedule : ?cdf:cdf -> rate:float -> duration:float -> seed:int -> unit -> event array
  (** All arrivals falling in [[0, duration)] seconds. *)

  val consumer_stream : int -> Ic_prng.Rng.t
  (** The reserved consumer substream of a schedule seed (substream 2; the
      feed overlay draws OD pairs from it, the load generator its query
      mix). Independent of the arrival and size substreams. *)
end

type t

(** Circuit breaker against a faulting collector: a bin whose faulted-poll
    fraction (drops + corruptions) exceeds [fault_frac] is {e faulted};
    after [open_after] consecutive faulted bins the breaker opens and the
    feed carries the last clean bin's values forward (all-present flags)
    for [cooldown] bins, then lets one real poll through as a half-open
    probe — clean recloses it, faulted reopens it for a full cooldown.
    Breaker state is replay-derived (never checkpointed): a resumed feed
    rebuilds it deterministically through {!skip}. *)
type breaker_config = {
  open_after : int;  (** consecutive faulted bins before opening; >= 1 *)
  cooldown : int;  (** carried bins before the half-open probe; >= 1 *)
  fault_frac : float;
      (** faulted-poll fraction that marks a bin faulted; in (0,1] *)
}

val default_breaker : breaker_config
(** [{ open_after = 3; cooldown = 6; fault_frac = 0.5 }]. *)

val create :
  ?noise_sigma:float ->
  ?drop_rate:float ->
  ?corrupt_rate:float ->
  ?openloop:Openloop.event array ->
  ?telemetry:Telemetry.t ->
  ?breaker:breaker_config ->
  Ic_topology.Routing.t ->
  Ic_traffic.Series.t ->
  seed:int ->
  t
(** Defaults: 1% noise, no drops, no corruption, no open-loop overlay.
    [openloop] adds each scheduled flow's bytes to the bin its arrival time
    falls into, on an OD pair drawn uniformly (distinct src/dst) from the
    schedule's consumer substream, routed through the same matrix as the
    base traffic — extra open-loop load the engine must absorb. The base
    fault streams are unchanged by the overlay, so a feed with [openloop =
    Some [||]] replays byte-identically to one without. Raises
    [Invalid_argument] on rates out of range or a series that does not
    match the routing.

    [telemetry] (typically the engine's own sink, honoring its
    single-writer rule) makes every injected fault observable in the shared
    registry: per delivered bin the feed counts [feed.polls.total] (rows
    polled), [feed.polls.dropped] (polls the collector lost),
    [feed.polls.carried] (drops papered over with the previous reading —
    first-poll drops fall back to the true value and are not carries) and
    [feed.polls.corrupt] (surviving polls flipped to garbage). With a
    breaker, its transitions surface as [feed.breaker.opened],
    [feed.breaker.probes], [feed.breaker.reclosed] and
    [feed.breaker.carried] (bins delivered from the last clean values).
    {!skip} counts nothing: a resumed engine's restored counters already
    include the skipped bins, so resume totals equal the uninterrupted
    run's. *)

val of_loads :
  ?noise_sigma:float ->
  ?drop_rate:float ->
  ?corrupt_rate:float ->
  ?telemetry:Telemetry.t ->
  ?breaker:breaker_config ->
  Ic_linalg.Vec.t array ->
  seed:int ->
  t
(** A feed over caller-computed per-bin true link loads (copied), for
    callers whose loads are not one fixed routing times one series — the
    scenario timeline routes each bin through that bin's topology epoch.
    The fault-stream layout is identical to {!create}: [of_loads] over
    precomputed [R x(t)] replays byte-identically to [create routing
    series] with the same seed and rates. Raises [Invalid_argument] on
    rates out of range, ragged loads, or any non-finite load entry —
    true loads are caller-computed physics, not measurements, so a NaN or
    infinity is a caller bug rejected at ingest rather than replayed as
    plausible-looking corruption. *)

val length : t -> int
(** Total bins in the replay. *)

val position : t -> int
(** Index of the next bin to be delivered. *)

val breaker_state : t -> [ `Closed | `Open of int ] option
(** The breaker's current state ([None] when no breaker is configured):
    [`Open k] carries [k] more bins, with [`Open 0] meaning the next bin
    is the half-open probe. *)

val next : t -> (Ic_linalg.Vec.t * bool array) option
(** The next bin's observation: measured loads (one per routing row) and
    the dropped-poll flags. [None] when the replay is exhausted. *)

val next_quiet : t -> (Ic_linalg.Vec.t * bool array) option
(** {!next} with the fault counters suppressed (stream state, breaker
    transitions and the delivered values are identical). For resume paths
    re-drawing an observation that was already delivered — and counted —
    before a kill, so resume totals still equal the uninterrupted run's. *)

val skip : t -> int -> unit
(** [skip t k] advances past [k] bins, drawing and discarding their
    observations so the stream state stays identical to a feed that
    delivered them — fast-forward for resume-after-kill. *)
