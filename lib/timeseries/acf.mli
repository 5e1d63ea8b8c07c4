(** Autocorrelation analysis, used to verify that generated and fitted
    activity series carry the expected daily periodicity (Figure 9). *)

val autocorrelation : float array -> int -> float
(** [autocorrelation xs lag] is the sample autocorrelation at the given lag
    (biased estimator, denominator n). Raises [Invalid_argument] if the lag
    is out of range or the series is constant. *)

val periodicity_strength : float array -> period:int -> float
(** Autocorrelation at exactly the claimed period; near 1 means strongly
    periodic. *)
