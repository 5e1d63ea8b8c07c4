(** Cholesky factorization for symmetric positive-definite systems. *)

type t
(** A factorization [A = L Lᵀ] with [L] lower-triangular. *)

val default_ridge : float
(** [1e-10] — the standard relative ridge for normal-equation systems built
    from routing matrices (tomogravity's [R W Rᵀ]). These systems are
    numerically rank deficient by construction, so a ridge well above the
    [1e-12] last-resort jitter of {!factorize_ridge} keeps the solve stable
    without visibly perturbing the solution. *)

val factorize : Mat.t -> (t, [ `Not_positive_definite of int ]) result
(** [factorize a] factorizes the symmetric matrix [a] (only the lower triangle
    is read). [`Not_positive_definite k] reports a non-positive pivot at step
    [k]. Raises [Invalid_argument] if [a] is not square. *)

val factorize_into :
  ?shift:float ->
  l:Mat.t ->
  Mat.t ->
  (t, [ `Not_positive_definite of int ]) result
(** [factorize_into ~l a] is {!factorize} writing the factor into the
    caller-owned buffer [l] (same dimensions as [a]) instead of allocating —
    the workspace entry point for per-bin solves that reuse one factor buffer
    across a whole series. [?shift] (default [0.]) factorizes [a + shift I]
    without materializing the shifted matrix. The returned [t] aliases [l]:
    the factorization is only valid until [l] is overwritten. On [Error] the
    contents of [l] are unspecified. Produces bit-identical factors to
    {!factorize} on the (shifted) input. *)

val factorize_ridge : ?ridge:float -> Mat.t -> t
(** [factorize_ridge ~ridge a] factorizes [a + lambda I] where [lambda] starts
    at [ridge] times the mean diagonal (default [1e-12]) and is increased by
    factors of 10 until the factorization succeeds. Intended for normal
    equations that may be numerically rank deficient, such as the tomogravity
    system [R W Rᵀ]. *)

val factorize_ridge_into : ?ridge:float -> l:Mat.t -> Mat.t -> t
(** {!factorize_ridge} writing into a caller-owned factor buffer (see
    {!factorize_into} for the aliasing rules). *)

val solve : t -> Vec.t -> Vec.t
(** [solve ch b] solves [A x = b]: {!solve_into} on a copy of [b]. *)

val solve_into : t -> Vec.t -> unit
(** [solve_into ch b] solves [A x = b] in place, overwriting [b] with the
    solution — no allocation. Forward substitution solves four rows per
    block: their sums run side by side over the prefix they share, each
    still subtracting its terms in column order. Backward substitution
    goes one row at a time, since each row's first term needs the row
    solved just before it. *)

val transpose_into : t -> lt:Mat.t -> unit
(** [transpose_into ch ~lt] writes [Lᵀ] into the caller-owned [n x n]
    buffer [lt] (upper triangle; the strict lower triangle is left as-is).
    Callers that hold a factor across many solves — the tomogravity factor
    cache — pay this O(n²) copy once to make every later backward
    substitution a stride-1 walk via {!solve_into_t}. *)

val solve_into_t : t -> lt:Mat.t -> Vec.t -> unit
(** {!solve_into} reading the backward-substitution coefficients from a
    transposed factor previously produced by {!transpose_into} (row walks
    instead of stride-n column walks). Bit-identical to {!solve_into}:
    the same values are combined in the same order. *)

