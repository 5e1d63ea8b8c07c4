(** Alternative base traffic processes beside {!Synth}'s IC generator.

    The scenario layer (and any experiment that wants a base process the
    IC model does {e not} describe) selects one of four families:

    + [Ic] — {!Synth.generate}'s stable-fP process (the paper's model);
    + [Bimodal] — elephants-and-mice: 20% of OD pairs drawn from a mean
      ~20x the rest, both lognormal (the TE-Viz bimodal generator);
    + [Uniform_normal] — per-OD means uniform on [0.5, 1.5] of a common
      level with additive gaussian bin noise, the blandest possible
      spatial structure;
    + [Nucci] — heavy-tailed lognormal fan-in/fan-out weights composed as
      a rank-one gravity structure with multiplicative noise (Nucci et
      al.'s TM synthesis recipe).

    All families share a smooth afternoon-peak diurnal modulation (mean
    one over a day) and are deterministic functions of the supplied
    generator, so scenario verdicts built on them are cram-pinnable. *)

type t = Ic | Bimodal | Uniform_normal | Nucci

val all : t list

val name : t -> string
(** ["ic"], ["bimodal"], ["uniform-normal"], ["nucci"]. *)

type spec = {
  nodes : int;
  binning : Ic_timeseries.Timebin.t;
  bins : int;
  mean_total_bytes : float;  (** long-run mean bin total, every family *)
}

val default_spec : spec
(** 22 nodes, 5-minute bins, one day, 2 GB mean bin total. *)

val generate : t -> spec -> Ic_prng.Rng.t -> Ic_traffic.Series.t
(** Raises [Invalid_argument] on fewer than 2 nodes, non-positive bins or
    a non-positive byte level. *)
