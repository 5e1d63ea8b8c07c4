(** Kolmogorov–Smirnov distance between a sample and a reference CDF. *)

val distance : float array -> (float -> float) -> float
(** [distance sample cdf] is [sup_x |F_n(x) - cdf x|] evaluated at the sample
    points (where the supremum of the step-vs-continuous difference is
    attained). Raises [Invalid_argument] on empty input. *)
