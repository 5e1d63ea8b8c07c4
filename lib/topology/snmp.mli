(** SNMP-style link-load measurement.

    The estimation problem's inputs [Y] come from SNMP byte counters in
    practice (paper Section 6: "the link counts Y can be obtained through
    standard SNMP measurements"). Real counters add two artifacts that the
    idealized [Y = R x] lacks: per-poll noise (polling-interval jitter,
    counter timing) and missing polls. This module simulates both so the
    pipeline's robustness can be measured. *)

type spec = {
  noise_sigma : float;  (** multiplicative lognormal per link per poll *)
  loss_rate : float;  (** probability that a poll is missing *)
}

val ideal : spec
(** No artifacts — for tests and ablation baselines. *)

(** {2 Streaming poll source}

    A live estimation engine consumes polls one bin at a time and needs to
    know {e which} polls were missing (the batch API imputes them silently).
    A [stream] carries the poller state — the RNG and the last reported
    value per link — across bins. *)

type poll = {
  values : Ic_linalg.Vec.t;
      (** measured loads; missing entries carry the last reported value
          forward (first-poll losses fall back to the true value) *)
  missing : bool array;  (** which polls were lost this bin *)
}

type stream

val stream : spec -> Ic_prng.Rng.t -> stream
(** A fresh poll stream. Raises [Invalid_argument] on parameters out of
    range. *)

val poll : stream -> Ic_linalg.Vec.t -> poll
(** [poll stream true_loads] measures one bin: independent mean-corrected
    lognormal noise per link, polls lost with probability [loss_rate].
    Raises [Invalid_argument] if the link count changes mid-stream. *)

val measure_series :
  spec -> Ic_prng.Rng.t -> Ic_linalg.Vec.t array -> Ic_linalg.Vec.t array
(** [measure_series spec rng loads] distorts a per-bin series of true link
    loads: each entry gets independent mean-corrected lognormal noise, and
    missing polls are imputed by carrying the last observed value forward
    (first-bin losses fall back to the true value). Implemented as a
    {!stream} drained over the series — draw-for-draw identical to polling
    bin at a time. Raises [Invalid_argument] on inconsistent dimensions or
    parameters out of range. *)
