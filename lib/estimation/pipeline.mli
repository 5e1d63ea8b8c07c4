(** End-to-end TM estimation (paper Section 6's three-step blueprint):

    1. build a prior series,
    2. refine each bin against the observed link loads with tomogravity,
    3. project onto the measured marginals with IPF.

    The observable inputs are derived from the ground-truth series exactly
    as an operator would measure them: [Y(t) = R x_true(t)] including the
    ingress/egress pseudo-links. *)

type refinement =
  | Least_squares of Tomogravity.solver
      (** tomogravity: prior-weighted least squares (paper Section 6) *)
  | Max_entropy  (** KL projection onto the constraints ({!Entropy}) *)

type config = {
  routing : Ic_topology.Routing.t;  (** must be built [~with_marginals:true] *)
  refinement : refinement;
  apply_ipf : bool;  (** step 3 on/off (ablation) *)
}

val default_config : Ic_topology.Routing.t -> config
(** Least-squares refinement with the Cholesky solver, IPF enabled. *)

type result = {
  estimate : Ic_traffic.Series.t;
  per_bin_error : float array;  (** RelL2(t) vs the truth *)
  mean_error : float;
  per_bin_clamped : int array;
      (** entries the tomogravity non-negativity clamp zeroed, per bin *)
  clamped_entries : int;
      (** total estimate entries the tomogravity non-negativity clamp zeroed
          across all bins ({!Tomogravity.plan_last_clamp_count} summed) —
          never silently swallowed. The MaxEnt refinement is structurally
          non-negative and IPF only rescales, so this covers every clamp
          site in the pipeline. *)
}

val run :
  ?link_loads:Ic_linalg.Vec.t array ->
  ?tracer:Ic_obs.Trace.t ->
  config ->
  truth:Ic_traffic.Series.t ->
  prior:Ic_traffic.Series.t ->
  result
(** Estimate every bin. By default the observable link loads are computed
    exactly as [Y(t) = R x_true(t)]; pass [link_loads] (one vector per bin,
    e.g. from {!Ic_topology.Snmp.measure_series}) to estimate from imperfect
    measurements instead. Raises [Invalid_argument] if the routing was built
    without marginal rows (the pipeline needs the marginal measurements for
    IPF), or on dimension mismatches. *)

val run_par :
  ?link_loads:Ic_linalg.Vec.t array ->
  ?tracer:Ic_obs.Trace.t ->
  pool:Ic_parallel.Pool.t ->
  config ->
  truth:Ic_traffic.Series.t ->
  prior:Ic_traffic.Series.t ->
  result
(** {!run} with the bins sharded across the pool's domains. Shares one
    read-only tomogravity plan structure ({!Tomogravity.plan_clone} per
    domain for the mutable scratch) and folds the per-bin clamp counts in
    bin order, so the result — estimates, errors, and clamp total — is
    bit-identical to {!run} at every pool size. *)

val run_estimator :
  ?link_loads:Ic_linalg.Vec.t array ->
  ?tracer:Ic_obs.Trace.t ->
  ?pool:Ic_parallel.Pool.t ->
  (module Estimator.S) ->
  routing:Ic_topology.Routing.t ->
  ?train:Ic_traffic.Series.t ->
  truth:Ic_traffic.Series.t ->
  unit ->
  result
(** The generic batch driver behind {!run}: calibrate the estimator once
    ([train] is passed through to {!Estimator.S.calibrate}), freeze its
    state, and run every bin of [truth] through the three stages against
    link loads measured from the truth (or [link_loads] when supplied).
    With a [pool] the bins are sharded across domains — the frozen state
    plus one {!Tomogravity.plan_clone} per domain make the result
    bit-identical to the sequential run at every pool size, for {e every}
    registered estimator (qcheck-pinned over the registry). Raises
    [Invalid_argument] on routing/series mismatches, or whatever the
    estimator's [calibrate] raises (e.g. [ic] without a training split). *)

val improvement_over :
  baseline:result -> candidate:result -> float array
(** Per-bin percentage improvement of the candidate's error over the
    baseline's — the quantity plotted in the paper's Figures 11–13. *)
