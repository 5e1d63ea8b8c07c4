type t = {
  base_level : float;
  profile : float array;
  weekend_damping : float;
  residual_phi : float;
  residual_sigma : float;
}

let fit binning xs =
  let per_day = Timebin.bins_per_day binning in
  let n = Array.length xs in
  if n < per_day then
    invalid_arg "Cyclo_fit.fit: need at least one day of data";
  (* weekday/weekend means *)
  let wd_sum = ref 0. and wd_count = ref 0 in
  let we_sum = ref 0. and we_count = ref 0 in
  Array.iteri
    (fun k x ->
      if x > 0. then
        if Timebin.is_weekend binning k then begin
          we_sum := !we_sum +. x;
          incr we_count
        end
        else begin
          wd_sum := !wd_sum +. x;
          incr wd_count
        end)
    xs;
  let base_level =
    if !wd_count > 0 then !wd_sum /. float_of_int !wd_count
    else if !we_count > 0 then !we_sum /. float_of_int !we_count
    else invalid_arg "Cyclo_fit.fit: no positive samples"
  in
  let weekend_damping =
    if !we_count = 0 || !wd_count = 0 then 1.
    else
      Ic_linalg.Proj.box ~lo:0.05 ~hi:1.
        (!we_sum /. float_of_int !we_count /. base_level)
  in
  (* daily profile from weekday bins (weekend bins corrected by damping) *)
  let sums = Array.make per_day 0. in
  let counts = Array.make per_day 0 in
  Array.iteri
    (fun k x ->
      if x > 0. then begin
        let slot = k mod per_day in
        let corrected =
          if Timebin.is_weekend binning k then x /. weekend_damping else x
        in
        sums.(slot) <- sums.(slot) +. corrected;
        counts.(slot) <- counts.(slot) + 1
      end)
    xs;
  let profile =
    Array.init per_day (fun s ->
        if counts.(s) > 0 then sums.(s) /. float_of_int counts.(s) /. base_level
        else 1.)
  in
  (* normalize the profile to mean 1 *)
  let pmean = Ic_linalg.Vec.mean profile in
  let profile =
    if pmean > 0. then Array.map (fun p -> Float.max (p /. pmean) 1e-3) profile
    else Array.make per_day 1.
  in
  (* residuals in log space, then AR(1) moments *)
  let envelope_at k =
    let day = Timebin.day_of_week binning k in
    base_level *. profile.(k mod per_day)
    *. (if day = 5 || day = 6 then weekend_damping else 1.)
  in
  let residuals =
    Array.mapi
      (fun k x ->
        let e = envelope_at k in
        if x > 0. && e > 0. then log (x /. e) else 0.)
      xs
  in
  let mean_r = Ic_linalg.Vec.mean residuals in
  let centered = Array.map (fun r -> r -. mean_r) residuals in
  let var = Ic_linalg.Vec.dot centered centered /. float_of_int n in
  let cov1 = ref 0. in
  for k = 0 to n - 2 do
    cov1 := !cov1 +. (centered.(k) *. centered.(k + 1))
  done;
  let cov1 = !cov1 /. float_of_int (n - 1) in
  let residual_phi =
    if var > 1e-12 then Ic_linalg.Proj.box ~lo:0. ~hi:0.99 (cov1 /. var) else 0.
  in
  {
    base_level;
    profile;
    weekend_damping;
    residual_phi;
    residual_sigma = sqrt (Float.max var 0.);
  }

let envelope t binning k =
  let per_day = Array.length t.profile in
  let day = Timebin.day_of_week binning k in
  t.base_level *. t.profile.(k mod per_day)
  *. (if day = 5 || day = 6 then t.weekend_damping else 1.)

let generate t binning rng ~bins =
  if bins < 0 then invalid_arg "Cyclo_fit.generate: negative length";
  let sigma = t.residual_sigma in
  let innov = sigma *. sqrt (1. -. (t.residual_phi *. t.residual_phi)) in
  let log_noise = ref (Ic_prng.Sampler.normal rng ~mu:0. ~sigma) in
  Array.init bins (fun k ->
      let value =
        envelope t binning k *. exp (!log_noise -. (sigma *. sigma /. 2.))
      in
      log_noise :=
        (t.residual_phi *. !log_noise)
        +. Ic_prng.Sampler.normal rng ~mu:0. ~sigma:innov;
      value)
