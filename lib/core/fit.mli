(** Estimation of IC-model parameters from observed traffic matrices
    (paper Section 5.1).

    The paper minimizes [sum_t RelL2(t)] with Matlab's optimization toolbox
    under the constraints [A_i(t) >= 0], [P_i >= 0], [sum_i P_i = 1]. We
    minimize the smooth surrogate [sum_t RelL2(t)^2] by block-coordinate
    descent where every block subproblem is a constrained linear
    least-squares problem solved exactly:

    - activities [A(t)]: one non-negative least-squares problem per bin;
    - preferences [P]: one NNLS problem accumulated over all bins with
      per-bin weights [1 / ||X(t)||^2], then normalized to the simplex with
      the scale absorbed into the activities;
    - forward fraction [f]: a closed-form weighted scalar solve clamped to
      [[0, 1]].

    The model of bin [t], [X = f A P^T + (1 - f) P A^T], is bilinear, so
    each block's Gram matrix has a closed form in [(f, P)] or [(f, A(t))],
    and its right-hand side needs the bin's matrix only through the
    products [X z] and [X^T z]. A sweep therefore reads each bin's matrix
    twice, once per block, and keeps [X A(t)] and [X^T A(t)]; the [f] solve
    and every bin's error then cost O(n) per bin.

    Reported errors are the paper's RelL2, not the surrogate; each sweep
    computes every bin's RelL2 once, from the expanded norm
    [||X||^2 - 2 <X, M> + ||M||^2] (floored at 0) without building the
    model matrix [M], and its sum of squares is the sweep's objective. The
    expansion cancels: on an exact fit a reported RelL2 has an absolute
    rounding floor near [1e-8] rather than reading 0. The three variants
    differ only in which parameters the bins share, so they run one
    descent: the stable-f fit solves one preference block per bin, and the
    time-varying fit, which shares nothing across bins, is the stable-fP
    fit of each bin alone. One fit run keeps its Gram matrices, products
    and factors in one workspace, shared by every bin, sweep and basin.

    The activity Gram [α ‖P‖² I + β P P^T] (with [α = f² + (1 - f)²] and
    [β = 2 f (1 - f)]) is a scaled identity plus a rank-one term, so each
    bin's activity block is solved exactly in closed form by
    {!Ic_linalg.Nnls.solve_rank_one}, in O(n) per bin with no Gram
    matrix or factor; 29% of the activity solves on the Géant day windows
    the engine refits leave the interior, and the closed form finds their
    support too. The preference block's Gram is a weighted sum
    over bins with no such structure: it is factored once per sweep (once
    per bin in the stable-f fit), and only when its unconstrained solve
    goes negative does the block build an {!Ic_linalg.Nnls.system} on
    that factor for Lawson–Hanson.

    The simplified IC model has a near-symmetry exchanging activity and
    preference roles, [(f, A, P) ~ (1 - f, S P, A / S)], which creates a
    mirrored local minimum when activities are close to rank one across
    (node, time). A cold fit therefore dual-starts: it runs the descent from
    both [f_init] and [1 - f_init], each confined to its branch
    ([f <= 1/2] respectively [f >= 1/2]), and keeps the lower-error
    solution, breaking ties within 3% toward [f < 1/2] (the
    response-dominated branch the paper observes and validates directly
    from packet traces in its Section 5.2). A warm stable-fP fit (one given
    an [incumbent]) descends only in the basin of its [f_init]; a guard runs
    the mirrored branch too when the warm fit looks worse than the
    incumbent (see {!fit_stable_fp}). *)

type options = {
  max_sweeps : int;
      (** block-coordinate sweeps (default 40); every fitter raises
          [Invalid_argument] below 1 *)
  tol : float;  (** relative surrogate-improvement stop (default 1e-6) *)
  f_init : float;  (** starting forward fraction (default 0.25) *)
  f_bounds : float * float;
      (** interval the [f] update is clamped into (default [(0, 1)]); every
          fitter overrides it per branch: [(0, 1/2)] for the descent in
          [f_init]'s basin when [f_init < 1/2], [(1/2, 1)] for the mirrored
          one, and the other way round when [f_init > 1/2] *)
}

val default_options : options

type 'p fitted = {
  params : 'p;
  per_bin_error : float array;  (** RelL2(t) of the fitted model *)
  mean_error : float;
  sweeps : int;  (** sweeps actually performed *)
  both_basins : bool;
      (** both basin descents ran: always for a cold fit (and for
          {!fit_time_varying}), only when the guard fired for a warm one *)
}

val fit_stable_fp :
  ?options:options ->
  ?incumbent:float ->
  ?visit:(unit -> unit) ->
  Ic_traffic.Series.t ->
  Params.stable_fp fitted
(** Fit the stable-fP model (Equation 5): one [f], one preference vector,
    per-bin activities.

    [incumbent] is the window mean RelL2 of the fit [options.f_init] came
    from; the streaming engine's refits pass it. With it, the fit runs only
    the descent a cold fit would run in [f_init]'s basin, with the same
    options, so its result is bit-identical to the cold fit's whenever that
    branch would have won. A guard keeps the mirrored basin reachable: when
    the warm mean error exceeds [incumbent] by more than the 3% tie margin,
    or the warm [f] ends on the bound [1/2], the mirrored descent runs too
    and the two are picked exactly as a cold fit picks them. Without
    [incumbent] or at [f_init = 1/2] the fit is cold.

    [visit] (default: nothing) is called once before each bin visit: one
    bin's body in the window norms, in the initial preference's marginals,
    or in the activity or preference block of a sweep, in every descent
    the fit runs. A warm fit of a 288-bin window makes about 4,000 visits,
    a both-basin one twice that. The hook only observes: it changes no
    arithmetic, so a caller may suspend the fit inside it (the streaming
    engine does, through an effect, to spread a refit over several bins)
    and still get this function's result bit for bit. *)

val fit_stable_f :
  ?options:options ->
  Ic_traffic.Series.t ->
  Params.stable_f fitted
(** Fit the stable-f model (Equation 4): one [f], per-bin preferences and
    activities. *)

val fit_time_varying :
  ?options:options ->
  Ic_traffic.Series.t ->
  Params.time_varying fitted
(** Fit the time-varying model (Equation 3): every parameter per bin. Bin
    [t]'s parameters and error are exactly the cold {!fit_stable_fp} of the
    one-bin series holding bin [t]; [sweeps] is the most that any bin's
    descent ran, in either basin. *)

val fit_general_f :
  Params.stable_fp -> Ic_traffic.Series.t -> Ic_linalg.Mat.t
(** Given fitted stable-fP parameters, estimate per-OD forward fractions
    [f_ij] (Equation 1) by least squares over the bins, clamped to [[0,1]].
    Diagonal entries are set to the global [f] (they are not identifiable).
    Used by the routing-asymmetry ablation. *)

val gravity_fit : Ic_traffic.Series.t -> Ic_traffic.Series.t
(** The gravity-model "fit" of a series — [X_ij = X_i* X_*j / X_**] per bin —
    the baseline the paper compares against in Figure 3. *)

val per_bin_error :
  Ic_traffic.Series.t -> Ic_traffic.Series.t -> float array
(** RelL2(t) between a data series and a model series (bins where the data
    is all-zero yield 0). *)
