(** Fitting the cyclo-stationary activity model to an observed series —
    the future-work direction the paper sketches in Section 5.4 (modeling
    the fitted [A_i(t)] with a cyclo-stationary process a la Soule et al.)
    so that measured activities can seed multi-week synthetic generation.

    The estimator decomposes a series into:
    - a weekday daily profile (mean by time-of-day over weekdays),
    - a weekend damping factor (weekend mean over weekday mean),
    - lognormal AR(1) residuals (phi, sigma in log space). *)

type t = {
  base_level : float;  (** weekday mean of the series *)
  profile : float array;  (** daily multiplicative profile, mean 1, one
                              entry per bin-of-day *)
  weekend_damping : float;  (** in (0, 1]; clamped *)
  residual_phi : float;  (** AR(1) coefficient of log residuals, in [0,1) *)
  residual_sigma : float;  (** stationary stddev of log residuals *)
}

val fit : Timebin.t -> float array -> t
(** [fit binning xs] estimates the components from at least one day of
    strictly positive data; non-positive samples are treated as missing
    (replaced by the current profile value). Raises [Invalid_argument] on
    input shorter than one day. *)

val envelope : t -> Timebin.t -> int -> float
(** Deterministic reconstruction at a bin index. *)

val generate : t -> Timebin.t -> Ic_prng.Rng.t -> bins:int -> float array
(** Sample a synthetic continuation with the fitted envelope and AR(1)
    lognormal residuals. *)
