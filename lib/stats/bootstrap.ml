type interval = { estimate : float; lo : float; hi : float }

let replicates = 1000

let confidence = 0.95

let mean_ci rng xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bootstrap.mean_ci: empty sample";
  let estimate = Descriptive.mean xs in
  let resample = Array.make n 0. in
  let stats =
    Array.init replicates (fun _ ->
        for k = 0 to n - 1 do
          resample.(k) <- xs.(Ic_prng.Rng.int rng n)
        done;
        Descriptive.mean resample)
  in
  let alpha = (1. -. confidence) /. 2. in
  {
    estimate;
    lo = Descriptive.quantile stats alpha;
    hi = Descriptive.quantile stats (1. -. alpha);
  }
