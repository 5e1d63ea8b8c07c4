type exponential = { rate : float }

type lognormal = { mu : float; sigma : float }

let exponential_mle xs =
  let m = Descriptive.mean xs in
  if m <= 0. then invalid_arg "Fit_dist.exponential_mle: non-positive mean";
  { rate = 1. /. m }

let lognormal_mle xs =
  if Array.length xs = 0 then invalid_arg "Fit_dist.lognormal_mle: empty input";
  Array.iter
    (fun x ->
      if x <= 0. then
        invalid_arg "Fit_dist.lognormal_mle: non-positive sample")
    xs;
  let logs = Array.map log xs in
  let mu = Descriptive.mean logs in
  (* MLE uses the population variance (denominator n) *)
  let n = float_of_int (Array.length logs) in
  let acc = ref 0. in
  Array.iter
    (fun l ->
      let d = l -. mu in
      acc := !acc +. (d *. d))
    logs;
  let sigma = sqrt (!acc /. n) in
  { mu; sigma = Float.max sigma 1e-12 }

type comparison = {
  exp_fit : exponential;
  logn_fit : lognormal;
  exp_ks : float;
  logn_ks : float;
  lognormal_preferred : bool;
}

let compare_tail_models xs =
  let exp_fit = exponential_mle xs in
  let logn_fit = lognormal_mle xs in
  let exp_cdf x = 1. -. Ccdf.exponential ~rate:exp_fit.rate x in
  let logn_cdf x =
    1. -. Ccdf.lognormal ~mu:logn_fit.mu ~sigma:logn_fit.sigma x
  in
  let exp_ks = Ks.distance xs exp_cdf in
  let logn_ks = Ks.distance xs logn_cdf in
  { exp_fit; logn_fit; exp_ks; logn_ks; lognormal_preferred = logn_ks < exp_ks }
