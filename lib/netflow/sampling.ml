let estimate_volume rng ~rate ~pkt_bytes v =
  if rate <= 0 then invalid_arg "Sampling.estimate_volume: bad rate";
  if pkt_bytes <= 0. then invalid_arg "Sampling.estimate_volume: bad packet size";
  if v < 0. then invalid_arg "Sampling.estimate_volume: negative volume";
  if v = 0. then 0.
  else begin
    let lambda = v /. pkt_bytes /. float_of_int rate in
    let sampled = Ic_prng.Sampler.poisson rng ~lambda in
    float_of_int sampled *. pkt_bytes *. float_of_int rate
  end
