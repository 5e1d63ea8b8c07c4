(** Non-negative least squares (Lawson–Hanson active-set method).

    Solves [minimize ||a x - b||  subject to  x >= 0]. This is the inner
    solver of the IC-model fitting procedure: activities and preferences are
    physical byte rates and probabilities and must stay non-negative. *)

val solve : ?max_iter:int -> ?tol:float -> Mat.t -> Vec.t -> Vec.t
(** [solve a b] returns the NNLS solution: {!solve_gram} on [aᵀa] and
    [aᵀb]. *)

val solve_gram :
  ?max_iter:int -> ?tol:float -> ?factor:Chol.t -> Mat.t -> Vec.t -> Vec.t
(** [solve_gram g c] solves the same problem from the normal-equation data
    [g = aᵀa] and [c = aᵀb]. It is the one NNLS entry point, and suits
    designs whose Gram matrix is cheap to accumulate, such as the fit's
    per-bin activity subproblem.

    It first solves the full system [g z = c] and returns [z] when it is
    strictly positive, the common case for traffic activities. Otherwise
    the active-set iteration starts from [z]'s positive support instead of
    an empty passive set (Bro and de Jong's FNNLS start). The answer is the
    solve on the final passive set, which both starts reach barring
    degenerate ties within [tol], so the start changes the work, not the
    answer: from the support a fallback typically takes one outer
    iteration.

    [factor] is any Cholesky factor of [g]; it replaces the factorization
    for the first solve. {!full_factor}[ g] keeps the interior answer
    bitwise equal to the call without it (the engine's prior cache holds
    one per regime). Another factor, such as the fit's unridged one, moves
    [z]'s last bits, so only the interior answer and the start can change.

    [max_iter] (default [3 * n + 10] for [n] variables) caps the outer
    loop and each feasibility pass separately; [tol] is the
    dual-feasibility tolerance relative to [max |c|] (default [1e-10]).
    The result satisfies [x >= 0] even when a cap is reached. *)

val full_factor : Mat.t -> Chol.t
(** The ridged Cholesky factor of the full normal system that {!solve_gram}
    computes when given no [factor] (ridge [1e-12] of the mean diagonal,
    as for every passive-set subproblem). Precompute it once per Gram
    matrix and pass it as [?factor]. *)

val kkt_violation : Mat.t -> Vec.t -> Vec.t -> float
(** [kkt_violation a b x] measures how far [x] is from satisfying the NNLS
    KKT conditions for [min ||a x - b||, x >= 0]: the maximum of (i) negative
    entries of [x], (ii) positive dual residual on the active set and (iii)
    absolute dual residual on the free set, scaled by the problem size.
    Near-zero means optimal; used by property tests. *)
