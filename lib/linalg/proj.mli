(** Euclidean projections onto the constraint sets used by the model fit. *)

val simplex : ?total:float -> Vec.t -> Vec.t
(** [simplex v] is the Euclidean projection of [v] onto the probability
    simplex [{ x : x >= 0, sum x = total }] (default [total = 1.]), using the
    sort-based algorithm of Duchi et al. (2008). Raises [Invalid_argument]
    for an empty vector or non-positive [total]. *)

val box : lo:float -> hi:float -> float -> float
(** Clamp a scalar into [[lo, hi]]. *)
