(** Nonparametric bootstrap confidence intervals, used to put uncertainty
    bands on the per-bin improvement means reported by the experiments. *)

type interval = { estimate : float; lo : float; hi : float }

val mean_ci : Ic_prng.Rng.t -> float array -> interval
(** Percentile bootstrap CI for the mean: 1000 replicates, 95%
    confidence. Raises [Invalid_argument] on empty input. *)
