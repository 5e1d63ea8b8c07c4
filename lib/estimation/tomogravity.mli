(** The tomogravity least-squares refinement step (Zhang, Roughan, Duffield,
    Greenberg, SIGMETRICS 2003) — Step 2 of the estimation blueprint.

    Given link counts [Y = R x] and a prior [x0], find the TM closest to the
    prior in prior-weighted least squares subject to the link constraints:

    [min || W^(-1/2) (x - x0) ||  s.t.  R x = Y],   [W = diag x0]

    whose solution is [x = x0 + W Rt u] with [(R W Rt) u = Y - R x0]. The
    normal system is solved either by ridge-regularized Cholesky (dense,
    default — exact for the network sizes at hand) or by conjugate gradient
    on the sparse operator (for the ablation and larger networks). The
    result is clamped to be non-negative. *)

type solver = Cholesky | Cg

val weighted_gram :
  Ic_topology.Routing.t -> Ic_linalg.Vec.t -> Ic_linalg.Mat.t
(** [weighted_gram routing w] is the dense [R diag(w) Rᵀ] — the normal
    system of both this module's least-squares step and {!Entropy}'s Newton
    iterations. *)

val estimate :
  ?solver:solver ->
  Ic_topology.Routing.t ->
  link_loads:Ic_linalg.Vec.t ->
  prior:Ic_traffic.Tm.t ->
  Ic_traffic.Tm.t
(** One bin. [link_loads] must have one entry per routing-matrix row.
    Raises [Invalid_argument] on dimension mismatches. *)

val residual :
  Ic_topology.Routing.t ->
  link_loads:Ic_linalg.Vec.t ->
  Ic_traffic.Tm.t ->
  float
(** Relative link-constraint violation [||R x - Y|| / ||Y||] of an estimate
    (diagnostic; the non-negativity clamp can leave a small residual). *)

(** {2 Batched estimation}

    Estimating a series re-solves the same-shaped system once per bin. A
    {!plan} precomputes everything that depends only on the routing matrix —
    a column-compressed view of [R] for assembling [R diag(w) Rᵀ] without
    transposing or allocating, plus a scratch workspace reused across bins —
    so the per-bin cost is pure arithmetic. Results are bit-identical to the
    one-shot {!estimate}. *)

type plan
(** Routing-dependent precomputation plus reusable scratch buffers. A plan
    is single-threaded state: concurrent estimates must not share one. *)

val make_plan : ?tracer:Ic_obs.Trace.t -> Ic_topology.Routing.t -> plan
(** [tracer] (default the no-op tracer) receives a [tomogravity.gram] /
    [tomogravity.factorize] / [tomogravity.solve] / [tomogravity.clamp]
    span per stage of every {!estimate_with_plan} call through the plan.
    Tracing only observes — enabled or not, the estimates are bit-identical
    (qcheck-pinned).

    The plan caches the Cholesky factor of its last Cholesky-path solve.
    The cache has two tiers, both bit-exact: a {e hit} when the weights are
    bitwise equal to the cached factor's (Gram assembly and factorization
    skipped), and a {e refactorization} otherwise. *)

type fastpath_stats = { hits : int; refactorizes : int }
(** Cumulative tier counts of a plan's factor cache: [hits] served with the
    cached factor untouched, [refactorizes] full Gram + Cholesky rebuilds. *)

val plan_fastpath_stats : plan -> fastpath_stats

val plan_invalidate : plan -> unit
(** Drop the plan's cached factor; the next Cholesky-path estimate through
    the plan refactorizes unconditionally. Hosts call this when the process
    that produces the weights changes regime (the streaming engine does so
    on refits and degradation-level transitions). *)

val plan_clone : plan -> plan
(** A plan over the same routing that {e shares} the read-only symbolic
    structure (the column-compressed view of [R]) and the tracer — span
    recording is domain-safe — but owns a fresh workspace and clamp
    counter. This is how the parallel paths give every domain its own
    single-threaded plan without redoing or duplicating the symbolic
    precomputation. *)

val plan_last_clamp_count : plan -> int
(** Number of negative entries (floating-point cancellation overshoot) that
    the non-negativity clamp zeroed in the most recent
    {!estimate_with_plan} call through this plan. The pre-PR-1 code clamped
    silently; callers that care about estimate fidelity — {!Pipeline} and
    the streaming runtime's telemetry — read this hook after each bin so no
    path swallows the clamp unrecorded. *)

val plan_weighted_gram : plan -> Ic_linalg.Vec.t -> Ic_linalg.Mat.t
(** {!weighted_gram} through the plan's column structure. The result lives
    in the plan's workspace and is only valid until the next call that uses
    the plan. Bit-identical to {!weighted_gram}. *)

val estimate_with_plan :
  ?solver:solver ->
  ?weights:Ic_linalg.Vec.t ->
  plan ->
  link_loads:Ic_linalg.Vec.t ->
  prior:Ic_traffic.Tm.t ->
  Ic_traffic.Tm.t
(** {!estimate} using the plan's precomputed structure and buffers. Raises
    the same [Invalid_argument] errors as {!estimate}.

    [weights] overrides the least-squares weight vector [W = diag w]
    (default: the clamped prior, exactly {!estimate}'s behavior). The link
    constraints [R x = Y] hold at the solution for {e any} psd [W] — the
    weights only choose which least-norm geometry the correction uses — so
    hosts may freeze the weights across bins to make consecutive calls hit
    the plan's factor cache: with bitwise-identical [weights] the Gram
    assembly and factorization are skipped and the result is bit-identical
    to the uncached call (the factorization is a deterministic function of
    the weights). Must have one entry per OD pair. *)
