(** Packet sampling, as used by the netflow collection behind datasets D1
    and D2 (1 packet in 1000). Sampling then inverting introduces the
    measurement noise that real TM data carries. *)

val estimate_volume :
  Ic_prng.Rng.t -> rate:int -> pkt_bytes:float -> float -> float
(** [estimate_volume rng ~rate ~pkt_bytes v] simulates measuring a byte
    volume [v] through 1-in-[rate] packet sampling with mean packet size
    [pkt_bytes]: the sampled packet count is Poisson with mean
    [v / pkt_bytes / rate], and the estimate inverts the sampling. The
    estimator is unbiased with relative standard deviation
    [sqrt(rate * pkt_bytes / v)]. *)
