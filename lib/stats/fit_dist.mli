(** Maximum-likelihood distribution fits used for Figure 7: the paper fits
    exponential and lognormal models to the preference values and finds the
    lognormal (mu ~ -4.3, sigma ~ 1.7) clearly better in the tail. *)

type exponential = { rate : float }

type lognormal = { mu : float; sigma : float }

val exponential_mle : float array -> exponential
(** [rate = 1 / mean]. Raises [Invalid_argument] on empty input or
    non-positive mean. *)

val lognormal_mle : float array -> lognormal
(** [mu, sigma] are the mean and (population) standard deviation of the log
    data. Raises [Invalid_argument] if any sample is non-positive. *)

type comparison = {
  exp_fit : exponential;
  logn_fit : lognormal;
  exp_ks : float;  (** KS distance of the exponential fit *)
  logn_ks : float;  (** KS distance of the lognormal fit *)
  lognormal_preferred : bool;
      (** true when the lognormal fit has the smaller KS distance *)
}

val compare_tail_models : float array -> comparison
(** Fit both models and compare by Kolmogorov–Smirnov distance. *)
