module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series

type t = Ic | Bimodal | Uniform_normal | Nucci

let all = [ Ic; Bimodal; Uniform_normal; Nucci ]

let name = function
  | Ic -> "ic"
  | Bimodal -> "bimodal"
  | Uniform_normal -> "uniform-normal"
  | Nucci -> "nucci"

type spec = {
  nodes : int;
  binning : Ic_timeseries.Timebin.t;
  bins : int;
  mean_total_bytes : float;
}

let default_spec =
  {
    nodes = 22;
    binning = Ic_timeseries.Timebin.five_min;
    bins = Ic_timeseries.Timebin.bins_per_day Ic_timeseries.Timebin.five_min;
    mean_total_bytes = 2e9;
  }

let check spec =
  if spec.nodes < 2 then invalid_arg "Tm_family: need at least 2 nodes";
  if spec.bins <= 0 then invalid_arg "Tm_family: bins must be positive";
  if spec.mean_total_bytes <= 0. then
    invalid_arg "Tm_family: bytes must be positive"

(* Shared diurnal modulation for the non-IC families: a smooth afternoon
   peak, mean one over a day, so [mean_total_bytes] is the long-run mean
   bin total for every family. *)
let diurnal_factor binning bin =
  let h = Ic_timeseries.Timebin.hour_of_day binning bin in
  1. +. (0.35 *. cos (2. *. Float.pi *. (h -. 14.) /. 24.))

(* Per-OD static means -> series: scale the means so an average bin totals
   [mean_total_bytes], then modulate by the diurnal profile and a per-bin
   multiplicative lognormal noise drawn OD-by-OD. *)
let series_of_means spec rng ~noise_sigma means =
  let n = spec.nodes in
  let total = Array.fold_left ( +. ) 0. means in
  if total <= 0. then invalid_arg "Tm_family: degenerate mean matrix";
  let scale = spec.mean_total_bytes /. total in
  let tms =
    Array.init spec.bins (fun b ->
        let m = diurnal_factor spec.binning b in
        Tm.init n (fun i j ->
            let mu = means.((i * n) + j) *. scale *. m in
            if mu <= 0. then 0.
            else
              mu
              *. Ic_prng.Sampler.lognormal rng
                   ~mu:(-.(noise_sigma *. noise_sigma) /. 2.)
                   ~sigma:noise_sigma))
  in
  Series.make spec.binning tms

(* TE-Viz's bimodal generator: a small fraction of OD pairs are elephants
   drawn from a mean ~20x the mice population's, both lognormal. *)
let bimodal spec rng =
  let n = spec.nodes in
  let means =
    Array.init (n * n) (fun k ->
        let i = k / n and j = k mod n in
        if i = j then 0.
        else begin
          let elephant = Ic_prng.Rng.float rng < 0.2 in
          let mu = if elephant then 3. else 0. in
          Ic_prng.Sampler.lognormal rng ~mu ~sigma:0.5
        end)
  in
  series_of_means spec rng ~noise_sigma:0.25 means

(* TE-Viz's uniform generator with additive gaussian bin noise: per-OD
   means uniform on [0.5, 1.5] of the common level, per-bin values normal
   around the modulated mean (clamped at zero). *)
let uniform_normal spec rng =
  let n = spec.nodes in
  let means =
    Array.init (n * n) (fun k ->
        let i = k / n and j = k mod n in
        if i = j then 0. else Ic_prng.Sampler.uniform rng ~lo:0.5 ~hi:1.5)
  in
  let total = Array.fold_left ( +. ) 0. means in
  let scale = spec.mean_total_bytes /. total in
  let tms =
    Array.init spec.bins (fun b ->
        let m = diurnal_factor spec.binning b in
        Tm.init n (fun i j ->
            let mu = means.((i * n) + j) *. scale *. m in
            if mu <= 0. then 0.
            else
              Float.max 0.
                (Ic_prng.Sampler.normal rng ~mu ~sigma:(0.1 *. mu))))
  in
  Series.make spec.binning tms

(* Nucci et al.'s synthesis recipe (the TE-Viz "nucci" family): heavy-tailed
   lognormal node fan-in/fan-out weights composed as a rank-one gravity
   structure, with multiplicative noise per bin — spatially much more
   skewed than the uniform family. *)
let nucci spec rng =
  let n = spec.nodes in
  let out_w =
    Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:0. ~sigma:1.2)
  in
  let in_w =
    Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:0. ~sigma:1.2)
  in
  let means =
    Array.init (n * n) (fun k ->
        let i = k / n and j = k mod n in
        if i = j then 0. else out_w.(i) *. in_w.(j))
  in
  series_of_means spec rng ~noise_sigma:0.3 means

let ic spec rng =
  let synth =
    {
      Synth.default_spec with
      nodes = spec.nodes;
      binning = spec.binning;
      bins = spec.bins;
      mean_total_bytes = spec.mean_total_bytes;
    }
  in
  (Synth.generate synth rng).Synth.series

let generate family spec rng =
  check spec;
  match family with
  | Ic -> ic spec rng
  | Bimodal -> bimodal spec rng
  | Uniform_normal -> uniform_normal spec rng
  | Nucci -> nucci spec rng
