(** The streaming estimation engine: one traffic-matrix estimate per time
    bin, fed link-load polls as they arrive, with bounded amortized work.

    Per bin the engine (1) validates and imputes the polls (carry-forward,
    with a per-link budget), (2) asks the {!Degrade} ladder which prior rung
    current health supports, (3) builds that prior from the bin's marginal
    counts, (4) refines it against the link constraints through a reused
    {!Ic_estimation.Tomogravity.plan}, and (5) projects onto the measured
    marginals with IPF. Every [refit_every] bins it refits the stable-fP
    parameters over a sliding window of its own recent estimates, which is
    what keeps the [Measured_ic] rung honest on a live feed; a native
    engine that has never fitted also refits once it has seen its first
    24 bins. The engine's first refit is a cold dual-start fit
    ({!Ic_core.Fit}); every later one starts from the current [f] and
    descends only in its basin, guarded by the previous refit's window mean
    RelL2 (the mirrored basin is searched too, and [refit.basin_check]
    counted, when the warm fit is worse than that error by more than the 3%
    tie margin or ends on [f = 1/2]).

    A step only makes a refit due. The refit runs at the start of the
    following steps, at most 768 bin visits ({!Ic_core.Fit.fit_stable_fp}'s
    [visit]) per step, and takes effect in the step whose slice completes
    it, before that step's bin is estimated: a warm day refit of the
    default config takes effect 4-5 bins after its window closes (a
    both-basin one about 10), a 24-bin or shorter one in the next bin, as a
    synchronous refit would. A sliced refit computes exactly the
    synchronous fit of its window.

    The tomogravity weights are frozen at the first bin of each regime
    (refit / ladder-transition epoch) and passed to the refine stage as
    [Estimator.ctx.weights], so consecutive bins hit the plan's cached
    Cholesky factor; on the native ["ic"] path the measured-ic prior also
    reuses a cached activity design and Gram with an interior-first NNLS.
    The link constraints hold at the solution for any psd weight matrix,
    so frozen weights change only the least-norm geometry of the
    correction (second order; IPF reimposes the marginals regardless).
    Frozen weights are checkpointed state.

    The engine is deterministic: identical observation streams produce
    bit-identical estimates, and {!snapshot}/{!restore} (see {!Checkpoint})
    reproduce the uninterrupted stream bit-for-bit after a kill. *)

type config = {
  routing : Ic_topology.Routing.t;  (** must be built [~with_marginals:true] *)
  binning : Ic_timeseries.Timebin.t;
  refit_every : int;  (** sliding-window refit period, bins *)
  window : int;  (** estimates retained for the refit window *)
  refit_sweeps : int;  (** block-coordinate sweeps per refit descent *)
  stale_after : int;
      (** fit age (bins) beyond which [Measured_ic] degrades to
          [Stale_fp] *)
  impute_budget : int;
      (** consecutive carry-forward polls tolerated per link before the
          ladder drops to gravity *)
  recover_after : int;  (** healthy bins per upward ladder step *)
  initial_params : (float * Ic_linalg.Vec.t) option;
      (** a pre-calibrated [(f, preference)], treated as a fit completed at
          bin 0 (the engine starts at [Measured_ic]) *)
  gate_refits : bool;
      (** anomaly-gate the sliding-window refit (default [false]): each
          bin's estimate is tested against the trailing non-quarantined
          window history (robust z-test on the log bin total, MAD floored
          at 5%); flagged bins stay in the estimate window but are
          excluded from refits, so a volume anomaly cannot poison the
          stable-fP parameters. Quarantine state is checkpointed —
          kill/resume stays bit-identical. *)
  gate_threshold : float;
      (** robust z-score above which a bin is quarantined (default 4) *)
  quarantine_limit : int;
      (** escape hatch: after this many {e consecutive} quarantined bins
          (default 6) the next cadence refit is forced over the full
          window and the flags are cleared — a long-lived attack or a
          legitimately shifted baseline must not starve fP forever *)
  epoch_refit : int option;
      (** with [Some k], a live {!set_routing} schedules an early refit
          [k] bins later restricted to post-change bins, instead of
          riding the stale pre-change fP until the regular cadence; the
          completed refit is recorded as an [Epoch_refit] note on the
          {!Degrade} ladder. [None] (default) keeps cadence-only
          refits. *)
  estimator : string;
      (** which estimator family produces each bin's estimate. ["ic"]
          (default) is the native path above — self-calibrating stable-fP,
          bit-for-bit the pre-plugin engine. Any other name is resolved in
          the {!Ic_estimation.Estimator} registry: the prior/refine/project
          stages dispatch to that family, its [observe] hook runs
          sequentially after every bin, and its state rides
          {!snapshot}/{!restore} (and {!Checkpoint}), so kill/resume stays
          bit-identical; the stable-fP refit machinery stays idle. Both
          paths share one per-bin body, so a plugged-in family gets the
          same regime-frozen weights in its ctx (families that re-derive
          their weights, like [tomogravity-iterative], ignore them) and the
          same IPF counters. The degradation ladder still tracks poll
          health (a plugged-in estimator is never held down by the
          fit-staleness component — it owns its own calibration), and the
          quarantine gate still flags anomalous bins. Raises in {!create}
          when the name is neither ["ic"] nor registered. *)
}

val default_config :
  Ic_topology.Routing.t -> Ic_timeseries.Timebin.t -> config
(** Daily refit window and period, 6 warm sweeps, staleness at two refit
    periods, imputation budget 2, recovery after 12 healthy bins, cold
    start; the resilience knobs conservative and off —
    [gate_refits = false], threshold 4, quarantine limit 6,
    [epoch_refit = None]; the native ["ic"] estimator. *)

type t

val create : ?telemetry:Telemetry.t -> ?tracer:Ic_obs.Trace.t -> config -> t
(** Raises [Invalid_argument] if the routing lacks marginal rows or a
    config field is out of range.

    [telemetry] (default: a fresh sink on [Ic_obs.Clock.now]) receives the
    counters and the [ingest]/[prior]/[estimate]/[ipf]/[refit] stage
    durations. [ipf.iterations] sums the sweeps of every IPF run, on
    either path; [ipf.unconverged] counts the runs that stopped at the
    iteration cap short of the marginals; [refit.basin_check] counts warm
    refits that also searched the mirrored basin.

    [tracer] (default: the no-op tracer) receives one [engine.step] span
    per bin with [engine.ingest]/[engine.prior]/[engine.estimate]/
    [engine.ipf] child spans (plus the tomogravity stage spans through the
    engine's plan) and an [engine.refit] span around each refit slice.
    Each stage is one [Ic_obs.Trace.stage] call, and each refit slice one
    span and one [refit] observation on the same clock reading. Tracing
    only observes: estimates are bit-identical with it on or off.

    Once the engine has refitted, the gauges [refit.f],
    [refit.mean_rel_l2] and [refit.effect_bin] (the bin the current fit
    took effect at) describe the fit in effect, and [refit.seconds] the
    wall time of the last refit's slices, summed; each is set once per
    refit. *)

type output = {
  estimate : Ic_traffic.Tm.t;
  level : Degrade.level;  (** prior rung used for this bin *)
  clamped : int;  (** negative entries zeroed by the tomogravity clamp *)
}

val step : t -> loads:Ic_linalg.Vec.t -> missing:bool array -> output
(** Consume one bin of polls: first the next slice of an in-flight refit,
    then the bin itself. [loads] has one entry per routing row;
    [missing.(e)] marks polls the collector lost (imputed by carry-forward).
    Entries that are non-finite or negative are treated as corrupt and
    imputed the same way. Raises [Invalid_argument] on dimension
    mismatches.

    After the bin, one rule decides whether a refit falls due: the epoch
    refit {!set_routing} scheduled, else the cadence refit every
    [refit_every] bins, else the cold fit at bin 24 of a never-fitted
    native engine; a refit whose window carries no traffic is skipped
    ([refit.skipped]) and the next one considered. Nothing of the refit
    runs in that step. A refit falling due while another is in flight lets
    the first take effect at once. *)

val refit : ?since:int -> ?ignore_quarantine:bool -> t -> bool
(** Refit over the sliding window now, synchronously, and let the fit take
    effect at once; cold or warm as described above. An in-flight refit
    takes effect first. [since] (default 0) restricts the window to bins at
    or after that index. [ignore_quarantine] (default [false]) bypasses the
    anomaly gate, refitting over quarantined bins too. Returns false when
    the eligible window is empty or carries no traffic. *)

val bins_seen : t -> int

val level : t -> Degrade.level

val params : t -> (float * Ic_linalg.Vec.t) option
(** Current [(f, preference)]; [None] before the first (re)fit. *)

val telemetry : t -> Telemetry.t

val transitions : t -> Degrade.transition list

val config : t -> config

val routing : t -> Ic_topology.Routing.t
(** The routing the engine is currently solving against: [config.routing]
    until the first {!set_routing}, then whatever was last installed. *)

val set_routing : ?degrade:bool -> t -> Ic_topology.Routing.t -> unit
(** Install a new routing mid-stream (a link failure/recovery or IGP
    reweight, typically produced by {!Ic_topology.Routing.rebuild}). The
    tomogravity plan is rebuilt for the new matrix immediately — no
    subsequent solve can touch the stale factor cache — and with [degrade]
    (the default, a live topology change) the next {!step}'s ladder verdict
    is forced down to at least [Closed_form] with reason
    [Topology_change], since the fitted stable-fP model predates the new
    topology; the sliding-window refit then re-earns the upper rungs under
    the usual hysteresis (and with [config.epoch_refit = Some k] an early
    refit over post-change bins is scheduled [k] bins out). Pass [~degrade:false] only when re-installing the
    routing an interrupted run was already using (checkpoint resume): it
    swaps the matrix and plan without recording a transition or counting
    [topology.changes], which is what keeps kill/resume bit-identical
    mid-scenario. The new routing must have marginal rows and the same row
    and node counts as the engine (use {!Ic_topology.Routing.rebuild} to
    keep failed links' rows in place); raises [Invalid_argument] otherwise.

    The forced down-step is consumed by the next [step] and is not part of
    {!snapshot} — callers applying topology events must step the event's
    bin before checkpointing (apply-then-step is atomic in the scenario
    runner). *)

(** {2 Checkpoint support}

    A snapshot is the full serializable engine state — everything that
    affects future estimates. Restoring it under the same config and
    replaying the same observations is bit-identical to never having
    stopped. Timing histograms and the [refit.seconds] gauge are
    deliberately excluded (wall-clock is not state); counters round-trip. *)

type refit_result = {
  r_at : int;  (** the bin it takes effect at, before that bin's estimate *)
  r_epoch : bool;
      (** an epoch refit: noted on the ladder and counted in [refit.epoch]
          when it takes effect *)
  r_f : float;
  r_preference : Ic_linalg.Vec.t;
  r_mean_error : float;  (** the fit's window mean RelL2 *)
  r_both_basins : bool;  (** both basins were searched *)
}
(** A refit run to its end ahead of its slices: what it sets when it takes
    effect. *)

type snapshot = {
  s_bin : int;
  s_f : float;
  s_preference : Ic_linalg.Vec.t option;
  s_fit_age : int;  (** [max_int] encodes "never fitted" *)
  s_fit_error : float option;
      (** window mean RelL2 of the engine's last refit, the incumbent its
          next warm refit is guarded against; [None] before the engine's
          own first refit (and in checkpoints that predate the record),
          which makes that refit cold. Checkpointed so a resumed engine
          makes the uninterrupted run's guard decisions. *)
  s_degrade : Degrade.snapshot;
  s_window : Ic_traffic.Tm.t array;  (** chronological, oldest first *)
  s_last_loads : Ic_linalg.Vec.t;
  s_have_last : bool;
  s_consec_missing : int array;
  s_counters : (string * int) list;
  s_frozen : (Degrade.level * Ic_linalg.Vec.t) option;
      (** the regime's frozen tomogravity weights and the ladder rung they
          were frozen at, on either path; [None] before the first freeze,
          after a refit until the next bin, or after a degenerate
          (all-zero) freeze bin. Checkpointed so kill/resume reproduces the
          uninterrupted stream bit-for-bit. *)
  s_quarantine : bool array;
      (** anomaly-gate flags, aligned entry-for-entry with [s_window] *)
  s_quarantine_streak : int;  (** consecutive quarantined bins so far *)
  s_epoch_bin : int;  (** bin of the last live topology change *)
  s_epoch_due : int;
      (** bin at which the scheduled post-epoch early refit fires;
          [max_int] encodes "none pending" *)
  s_estimator : Ic_estimation.Estimator.state option;
      (** the plugged-in estimator's slab state; [None] on the native ic
          path, which is what keeps default-path checkpoint bytes
          unchanged (and legacy checkpoints decoding). Restoring checks
          the state's owner against [config.estimator]. *)
  s_refit : refit_result option;
      (** a refit that was due or in flight, run to its end, with the bin
          its slices would have reached; [None] when none was pending *)
}

val snapshot : t -> snapshot
(** The engine's state. A refit that is due or in flight is first run to
    its end (its remaining slices at once), and the engine keeps its result
    until the bin it takes effect at, so taking a snapshot moves no
    estimate. *)

val restore :
  ?telemetry:Telemetry.t -> ?tracer:Ic_obs.Trace.t -> config -> snapshot -> t
(** Rebuild an engine from a snapshot. The config must structurally match
    the one the snapshot was taken under (same routing shape and window
    size); raises [Invalid_argument] otherwise, or when [s_refit] takes
    effect before [s_bin] or has the wrong preference size. *)
