(** Non-negative least squares (Lawson–Hanson active-set method).

    Solves [minimize ||a x - b||  subject to  x >= 0]. This is the inner
    solver of the IC-model fitting procedure: activities and preferences are
    physical byte rates and probabilities and must stay non-negative. A
    Gram that is a scaled identity plus a rank-one term, as the fit's
    activity block has, is solved in closed form by {!solve_rank_one}. *)

val solve : ?max_iter:int -> ?tol:float -> Mat.t -> Vec.t -> Vec.t
(** [solve a b] returns the NNLS solution: {!solve_gram} on [aᵀa] and
    [aᵀb]. *)

val solve_gram : ?max_iter:int -> ?tol:float -> Mat.t -> Vec.t -> Vec.t
(** [solve_gram g c] solves the same problem from the normal-equation data
    [g = aᵀa] and [c = aᵀb]: {!solve_system} on a fresh [system g]. Callers
    that solve many right-hand sides against one Gram matrix hold a
    {!system} instead.

    It first solves the full system [g z = c] and returns [z] when it is
    strictly positive, the common case for traffic activities. Otherwise
    the active-set iteration starts from [z]'s positive support instead of
    an empty passive set (Bro and de Jong's FNNLS start). The answer is the
    solve on the final passive set, which both starts reach barring
    degenerate ties within [tol], so the start changes the work, not the
    answer: from the support a fallback typically takes one outer
    iteration.

    [max_iter] (default [3 * n + 10] for [n] variables) caps the outer
    loop and each feasibility pass separately; [tol] is the
    dual-feasibility tolerance relative to [max |c|] (default [1e-10]).
    The result satisfies [x >= 0] even when a cap is reached. *)

type system
(** One Gram matrix ready for many right-hand sides: the Gram, a Cholesky
    factor of it for the first solve, and a memo of the ridged factors of
    the passive-set sub-Grams that earlier fallbacks needed, keyed by the
    exact passive set.

    A system lives as long as its Gram: the Gram is held, not copied, so
    it must not change while the system is in use (the fit builds one on
    a preference Gram in a buffer the next subproblem overwrites). Every answer is
    bit-equal to the same solve on a fresh system with the same factor
    ({!solve_gram}, for the default one), because a memoized factor is the
    same computation on the same Gram and passive set. Solving mutates the
    memo, so a system belongs to one domain at a time; a value shared
    across domains, such as the registry's batch [ic] estimator inside a
    [Pool.map], builds a fresh one per call instead
    ([Estimate_a.activities] does, through {!solve}). The memo grows by
    one factor per distinct passive set seen. *)

val system : ?factor:Chol.t -> Mat.t -> system
(** [system g] is [g] with {!full_factor}[ g] as its factor, so
    [solve_system (system g) c] is [solve_gram g c] bit for bit. [factor]
    is any Cholesky factor of [g] to use instead: the fit passes the
    unridged factor it already holds, which moves the full solve's last
    bits, so only the interior answer and the start can change. *)

val solve_system : ?max_iter:int -> ?tol:float -> system -> Vec.t -> Vec.t
(** [solve_system sys c] is {!solve_gram} on [sys]'s Gram and factor,
    reusing the passive-set factors earlier calls on [sys] computed. *)

val solve_rank_one : d:float -> b:float -> Vec.t -> Vec.t -> Vec.t
(** [solve_rank_one ~d ~b p c] solves [G x = c] under [x >= 0] for the
    Gram [G = d I + b p pᵀ] in closed form, in O(n) per step and without
    forming [G]: the answer {!solve_gram} gives on that Gram, to rounding.
    It requires [d >= 0], [b >= 0] and [p >= 0] entrywise (so [G] is
    positive semidefinite) and raises [Invalid_argument] otherwise, or when
    [p] and [c] differ in length; [p] is not checked when [d = 0].

    With [τ = p·x], the optimum is [x_k = max(0, c_k - b τ p_k) / d], where
    [τ] is the one root of [τ = Σ_k p_k max(0, c_k - b τ p_k) / d]. The
    solver first takes the unconstrained solution (Sherman–Morrison,
    [τ = p·c / (d + b ‖p‖²)]) and returns it, negatives clamped to 0, when
    every entry is [>= -1e-9 (1 + |x_k|)] (the tolerance the fit applies to
    its Cholesky solves). Otherwise it finds the root exactly by Newton
    steps over the coordinates still positive, which rise from that start
    and stop within [n + 1] steps. Edge cases: a coordinate with [p_k = 0]
    gets [max(0, c_k) / d]; [b = 0] gives [max(0, c) / d]; [d = 0]
    returns zeros rather than divide (the fit's [d = α ‖p‖²] is 0 only
    for [p = 0]). The result is a fresh array. *)

val full_factor : Mat.t -> Chol.t
(** The ridged Cholesky factor of the full normal system (ridge [1e-12] of
    the mean diagonal, as for every passive-set subproblem): the default
    factor of {!system}. *)

val kkt_violation : Mat.t -> Vec.t -> Vec.t -> float
(** [kkt_violation a b x] measures how far [x] is from satisfying the NNLS
    KKT conditions for [min ||a x - b||, x >= 0]: the maximum of (i) negative
    entries of [x], (ii) positive dual residual on the active set and (iii)
    absolute dual residual on the free set, scaled by the problem size.
    Near-zero means optimal; used by property tests. *)
