(** Empirical complementary cumulative distribution functions, the
    representation used by the paper's Figure 7 (log-log CCDF of preference
    values against exponential and lognormal fits). *)

type t = { xs : float array; probs : float array }
(** Sorted support points with [probs.(k) = P(X > xs.(k))] estimated as
    [(n - k - 1) / n] — the standard empirical CCDF on the sample itself. *)

val of_sample : float array -> t
(** Raises [Invalid_argument] on empty input. *)

val exponential : rate:float -> float -> float
(** Analytic CCDF [exp (-rate x)] for [x >= 0] (1 below 0). *)

val lognormal : mu:float -> sigma:float -> float -> float
(** Analytic CCDF [1 - Phi((ln x - mu)/sigma)] for [x > 0] (1 at or below 0). *)

val log_log_points : t -> (float * float) list
(** Positive-support points as [(x, ccdf)] pairs, suitable for log-log
    rendering; drops points with zero probability. *)
