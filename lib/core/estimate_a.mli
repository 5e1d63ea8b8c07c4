(** Recovering activities from marginal counts when [f] and [P] are known
    (paper Section 6.2, Equations 7–9).

    With normalized preferences and [S = sum_k A_k], the stable-fP model
    implies the per-bin marginal identities

    - ingress: [X_i* = f A_i + (1 - f) P_i S]
    - egress:  [X_*j = f P_j S + (1 - f) A_j]

    which is a [2n x n] linear system [Q Phi A = (X_ingress; X_egress)]. The
    paper solves it by pseudo-inverse; we solve the equivalent least-squares
    problem with non-negativity (activities are byte volumes). *)

val design_matrix : f:float -> preference:Ic_linalg.Vec.t -> Ic_linalg.Mat.t
(** The [2n x n] matrix [Q Phi] mapping activities to (ingress; egress)
    counts. The preference vector is normalized internally. *)

val activities :
  f:float ->
  preference:Ic_linalg.Vec.t ->
  ingress:Ic_linalg.Vec.t ->
  egress:Ic_linalg.Vec.t ->
  Ic_linalg.Vec.t
(** Least-squares, non-negative estimate of one bin's activities from its
    marginal counts. *)

type cache
(** The (f, preference)-dependent half of {!activities} — the design
    matrix and one {!Ic_linalg.Nnls.system} on its Gram (the Gram's ridged
    Cholesky factor plus the passive-set factors its bins' fallbacks have
    needed) — built once and reused for every bin sharing those
    parameters. This is the streaming engine's measured-ic prior fast
    path: between refits [(f, P)] are frozen, so per bin only the marginal
    right-hand side changes, the interior solve needs no factorization at
    all, and a bin that leaves the interior on an already seen passive set
    needs none either. The engine holds one cache per regime, in one
    domain. *)

val make_cache : f:float -> preference:Ic_linalg.Vec.t -> cache

val activities_cached :
  cache ->
  ingress:Ic_linalg.Vec.t ->
  egress:Ic_linalg.Vec.t ->
  Ic_linalg.Vec.t
(** {!activities} through a cache: one [designᵀ b] product plus
    {!Ic_linalg.Nnls.solve_system} on the cached system, so the common
    all-positive bin costs two triangular solves. Bit-identical to
    {!activities}. *)

val prior_series :
  f:float ->
  preference:Ic_linalg.Vec.t ->
  Ic_traffic.Series.t ->
  Ic_traffic.Series.t
(** Equation 9 applied per bin of an observed series: estimate activities
    from the series' own marginals (the only part of the data this function
    reads) and evaluate the stable-fP model to produce a TM prior series. *)
