module D = Ic_stats.Descriptive

let feq = Alcotest.(check (float 1e-9))

let feq_tol tol = Alcotest.(check (float tol))

let data = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]

let test_descriptive () =
  feq "mean" 5. (D.mean data);
  feq_tol 1e-9 "stddev" (sqrt (32. /. 7.)) (D.stddev data);
  feq "min" 2. (D.min data);
  feq "max" 9. (D.max data);
  feq "median" 4.5 (D.median data);
  feq "q0" 2. (D.quantile data 0.);
  feq "q1" 9. (D.quantile data 1.);
  Alcotest.check_raises "empty" (Invalid_argument "Descriptive.mean: empty input")
    (fun () -> ignore (D.mean [||]))

let test_histogram () =
  let h = D.histogram ~bins:4 [| 0.; 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "bins" 4 (Array.length h.counts);
  Alcotest.(check int) "total count" 5 (Array.fold_left ( + ) 0 h.counts);
  feq "first edge" 0. h.edges.(0);
  feq "last edge" 4. h.edges.(4)

let test_ccdf () =
  let c = Ic_stats.Ccdf.of_sample [| 1.; 2.; 3.; 4. |] in
  let pts = Ic_stats.Ccdf.log_log_points c in
  Alcotest.(check int) "positive points minus zero-prob tail" 3
    (List.length pts)

let test_analytic_ccdf () =
  feq_tol 1e-9 "exp at 0" 1. (Ic_stats.Ccdf.exponential ~rate:2. 0.);
  feq_tol 1e-9 "exp decay" (exp (-2.)) (Ic_stats.Ccdf.exponential ~rate:2. 1.);
  feq_tol 1e-6 "lognormal median" 0.5
    (Ic_stats.Ccdf.lognormal ~mu:1. ~sigma:0.7 (exp 1.));
  feq "lognormal at 0" 1. (Ic_stats.Ccdf.lognormal ~mu:0. ~sigma:1. 0.)

let test_exponential_mle () =
  let rng = Ic_prng.Rng.create 3 in
  let xs =
    Array.init 20_000 (fun _ -> Ic_prng.Sampler.exponential rng ~rate:3.)
  in
  let fit = Ic_stats.Fit_dist.exponential_mle xs in
  feq_tol 0.1 "rate recovered" 3. fit.rate

let test_lognormal_mle () =
  let rng = Ic_prng.Rng.create 5 in
  let xs =
    Array.init 20_000 (fun _ ->
        Ic_prng.Sampler.lognormal rng ~mu:(-4.3) ~sigma:1.7)
  in
  let fit = Ic_stats.Fit_dist.lognormal_mle xs in
  feq_tol 0.05 "mu" (-4.3) fit.mu;
  feq_tol 0.05 "sigma" 1.7 fit.sigma;
  Alcotest.check_raises "non-positive sample"
    (Invalid_argument "Fit_dist.lognormal_mle: non-positive sample") (fun () ->
      ignore (Ic_stats.Fit_dist.lognormal_mle [| 1.; 0. |]))

let test_model_comparison () =
  let rng = Ic_prng.Rng.create 7 in
  let lognormal_data =
    Array.init 2_000 (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:(-4.) ~sigma:1.5)
  in
  let cmp = Ic_stats.Fit_dist.compare_tail_models lognormal_data in
  Alcotest.(check bool) "lognormal wins on lognormal data" true
    cmp.lognormal_preferred;
  let exp_data =
    Array.init 2_000 (fun _ -> Ic_prng.Sampler.exponential rng ~rate:5.)
  in
  let cmp = Ic_stats.Fit_dist.compare_tail_models exp_data in
  Alcotest.(check bool) "exponential wins on exponential data" false
    cmp.lognormal_preferred

let test_ks () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let cdf x = Float.max 0. (Float.min 1. ((x +. 1.) /. 100.)) in
  Alcotest.(check bool) "small distance" true (Ic_stats.Ks.distance xs cdf < 0.03)

let test_pearson () =
  feq_tol 1e-9 "perfect" 1.
    (Ic_stats.Corr.pearson [| 1.; 2.; 3. |] [| 2.; 4.; 6. |]);
  feq_tol 1e-9 "perfect negative" (-1.)
    (Ic_stats.Corr.pearson [| 1.; 2.; 3. |] [| 3.; 2.; 1. |]);
  Alcotest.check_raises "zero variance"
    (Invalid_argument "Corr.pearson: zero variance input") (fun () ->
      ignore (Ic_stats.Corr.pearson [| 1.; 1. |] [| 1.; 2. |]))

let test_spearman () =
  (* monotone nonlinear relation: spearman 1, pearson < 1 *)
  let x = [| 1.; 2.; 3.; 4.; 5. |] in
  let y = Array.map (fun v -> exp v) x in
  feq_tol 1e-9 "spearman" 1. (Ic_stats.Corr.spearman x y);
  Alcotest.(check bool) "pearson below" true (Ic_stats.Corr.pearson x y < 1.)

let test_bootstrap_mean () =
  let rng = Ic_prng.Rng.create 13 in
  let xs =
    Array.init 400 (fun _ -> Ic_prng.Sampler.normal rng ~mu:10. ~sigma:2.)
  in
  let ci = Ic_stats.Bootstrap.mean_ci rng xs in
  feq_tol 1e-12 "estimate is the sample mean" (D.mean xs) ci.estimate;
  Alcotest.(check bool) "interval brackets estimate" true
    (ci.lo <= ci.estimate && ci.estimate <= ci.hi);
  (* CI half-width near 1.96 sigma/sqrt(n) = 0.196 *)
  Alcotest.(check bool) "sensible width" true
    (ci.hi -. ci.lo > 0.2 && ci.hi -. ci.lo < 0.6);
  Alcotest.(check bool) "covers the truth" true (ci.lo < 10. && 10. < ci.hi)

let test_bootstrap_validation () =
  let rng = Ic_prng.Rng.create 19 in
  Alcotest.check_raises "empty" (Invalid_argument "Bootstrap.mean_ci: empty sample")
    (fun () -> ignore (Ic_stats.Bootstrap.mean_ci rng [||]))

let test_pca_planted_structure () =
  (* data with two planted directions + small noise: PCA recovers the
     dimensionality *)
  let rng = Ic_prng.Rng.create 29 in
  let dims = 8 and rows = 400 in
  let dir1 = Array.init dims (fun j -> if j < 4 then 1. else 0.) in
  let dir2 = Array.init dims (fun j -> if j >= 4 then 1. else 0.) in
  let data =
    Ic_linalg.Mat.init rows dims (fun i j ->
        let a = 10. *. sin (float_of_int i /. 10.) in
        let b = 6. *. cos (float_of_int i /. 23.) in
        (a *. dir1.(j)) +. (b *. dir2.(j))
        +. Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.05)
  in
  let pca = Ic_stats.Pca.fit data in
  Alcotest.(check int) "two components for 99%" 2
    (Ic_stats.Pca.components_for pca ~variance:0.99);
  let ratios = Ic_stats.Pca.explained_ratio pca in
  feq_tol 1e-6 "ratios sum to 1" 1. (Array.fold_left ( +. ) 0. ratios)

let test_pca_reconstruction () =
  let rng = Ic_prng.Rng.create 31 in
  let data =
    Ic_linalg.Mat.init 100 5 (fun i j ->
        (float_of_int i *. float_of_int (j + 1) /. 10.)
        +. Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.01)
  in
  let pca = Ic_stats.Pca.fit data in
  (* rank-1 data: 1-component reconstruction is near-exact *)
  let row = Array.init (snd (Ic_linalg.Mat.dims data)) (Ic_linalg.Mat.get data 50) in
  let rebuilt = Ic_stats.Pca.reconstruct pca row ~k:1 in
  Alcotest.(check bool)
    "rank-1 reconstruction" true
    (Ic_linalg.Vec.nrm2_diff row rebuilt /. Ic_linalg.Vec.nrm2 row < 0.01);
  (* full reconstruction is exact *)
  let full = Ic_stats.Pca.reconstruct pca row ~k:5 in
  Alcotest.(check bool) "full reconstruction" true
    (Ic_linalg.Vec.approx_equal ~tol:1e-6 row full)

let test_pca_validation () =
  Alcotest.check_raises "too few rows"
    (Invalid_argument "Pca.fit: need at least two observations") (fun () ->
      ignore (Ic_stats.Pca.fit (Ic_linalg.Mat.create 1 3)))

let test_ranks () =
  let r = Ic_stats.Corr.ranks [| 10.; 20.; 20.; 30. |] in
  feq "rank of min" 1. r.(0);
  feq "tied average" 2.5 r.(1);
  feq "tied average" 2.5 r.(2);
  feq "rank of max" 4. r.(3)

let () =
  Alcotest.run "ic_stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "summary stats" `Quick test_descriptive;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "ccdf",
        [
          Alcotest.test_case "empirical" `Quick test_ccdf;
          Alcotest.test_case "analytic" `Quick test_analytic_ccdf;
        ] );
      ( "fits",
        [
          Alcotest.test_case "exponential mle" `Quick test_exponential_mle;
          Alcotest.test_case "lognormal mle" `Quick test_lognormal_mle;
          Alcotest.test_case "model comparison" `Quick test_model_comparison;
        ] );
      ("ks", [ Alcotest.test_case "distances" `Quick test_ks ]);
      ( "pca",
        [
          Alcotest.test_case "planted structure" `Quick
            test_pca_planted_structure;
          Alcotest.test_case "reconstruction" `Quick test_pca_reconstruction;
          Alcotest.test_case "validation" `Quick test_pca_validation;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "mean ci" `Quick test_bootstrap_mean;
          Alcotest.test_case "validation" `Quick test_bootstrap_validation;
        ] );
      ( "correlation",
        [
          Alcotest.test_case "pearson" `Quick test_pearson;
          Alcotest.test_case "spearman" `Quick test_spearman;
          Alcotest.test_case "ranks" `Quick test_ranks;
        ] );
    ]
