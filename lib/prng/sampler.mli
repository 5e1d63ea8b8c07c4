(** Samplers for the distributions used by the synthetic workload generators.

    Each sampler takes the generator explicitly; none of them keeps hidden
    state except where documented. *)

val uniform : Rng.t -> lo:float -> hi:float -> float

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian via the Box–Muller transform. Each call draws a fresh pair of
    uniforms and discards the second variate — simplicity over
    micro-efficiency. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** [exp(normal mu sigma)]; the paper's fit for node preferences uses
    [mu ~ -4.3], [sigma ~ 1.7]. *)

val exponential : Rng.t -> rate:float -> float

val pareto : Rng.t -> alpha:float -> x_min:float -> float
(** Heavy-tailed sizes; [alpha <= 2] gives infinite variance, typical for
    connection byte counts. *)

val poisson : Rng.t -> lambda:float -> int
(** Knuth multiplication for small means, normal approximation (rounded,
    clamped at 0) beyond [lambda > 64] — adequate for workload counts. *)
