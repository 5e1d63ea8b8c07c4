module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Vec = Ic_linalg.Vec
module Routing = Ic_topology.Routing

let feq_tol tol = Alcotest.(check (float tol))

let binning = Ic_timeseries.Timebin.five_min

(* --- IPF --- *)

let test_ipf_matches_marginals () =
  let tm = Tm.init 3 (fun i j -> float_of_int ((i * 3) + j + 1)) in
  let row_targets = [| 10.; 20.; 15. |] in
  let col_targets = [| 12.; 13.; 20. |] in
  let { Ic_estimation.Ipf.tm = fitted; max_marginal_error; converged; _ } =
    Ic_estimation.Ipf.fit tm ~row_targets ~col_targets
  in
  Alcotest.(check bool) "converged" true (max_marginal_error < 1e-8);
  Alcotest.(check bool) "reports convergence" true converged;
  Alcotest.(check bool)
    "rows match" true
    (Vec.approx_equal ~tol:1e-6 row_targets (Ic_traffic.Marginals.ingress fitted))

let test_ipf_rescales_inconsistent_targets () =
  (* column targets with a different total are rescaled to the rows' total *)
  let tm = Tm.init 2 (fun _ _ -> 1.) in
  let { Ic_estimation.Ipf.tm = fitted; _ } =
    Ic_estimation.Ipf.fit tm ~row_targets:[| 6.; 4. |] ~col_targets:[| 100.; 100. |]
  in
  feq_tol 1e-6 "total follows rows" 10. (Tm.total fitted);
  feq_tol 1e-6 "columns rescaled" 5. (Ic_traffic.Marginals.egress fitted).(0)

let test_ipf_preserves_proportions () =
  (* IPF keeps cross-product ratios (it scales rows/cols only) *)
  let tm = Tm.init 2 (fun i j -> [| [| 1.; 2. |]; [| 3.; 4. |] |].(i).(j)) in
  let { Ic_estimation.Ipf.tm = fitted; _ } =
    Ic_estimation.Ipf.fit tm ~row_targets:[| 30.; 70. |] ~col_targets:[| 40.; 60. |]
  in
  let ratio m = Tm.get m 0 0 *. Tm.get m 1 1 /. (Tm.get m 0 1 *. Tm.get m 1 0) in
  feq_tol 1e-6 "odds ratio invariant" (ratio tm) (ratio fitted)

let test_ipf_seeds_empty_rows () =
  let tm = Tm.create 2 in
  Tm.set tm 1 0 5.;
  Tm.set tm 1 1 5.;
  (* row 0 has no mass but a positive target: seeding lets IPF converge *)
  let { Ic_estimation.Ipf.tm = fitted; max_marginal_error; _ } =
    Ic_estimation.Ipf.fit tm ~row_targets:[| 4.; 6. |] ~col_targets:[| 5.; 5. |]
  in
  Alcotest.(check bool) "converged" true (max_marginal_error < 1e-6);
  feq_tol 1e-6 "row seeded" 4. (Ic_traffic.Marginals.ingress fitted).(0)

let test_ipf_unreachable_targets () =
  (* Row 1's mass can only reach column 0, so column 0 holds at least 1 of
     the total 2 and its 0.1 target is out of reach: the cap stops IPF. *)
  let tm = Tm.init 2 (fun i j -> if i = 1 && j = 1 then 0. else 1.) in
  let { Ic_estimation.Ipf.iterations; max_marginal_error; converged; _ } =
    Ic_estimation.Ipf.fit tm ~row_targets:[| 1.; 1. |]
      ~col_targets:[| 0.1; 1.9 |]
  in
  Alcotest.(check bool) "not converged" false converged;
  Alcotest.(check int) "ran to the cap" 200 iterations;
  Alcotest.(check bool) "marginals missed" true (max_marginal_error > 1e-9)

let ipf_property =
  QCheck.Test.make ~count:50
    ~name:"IPF matches marginals and preserves odds ratios"
    QCheck.(
      pair
        (list_of_size (Gen.return 9) (float_range 0.1 10.))
        (list_of_size (Gen.return 6) (float_range 1. 50.)))
    (fun (cells, targets) ->
      let cells = Array.of_list cells in
      let tm = Tm.init 3 (fun i j -> cells.((i * 3) + j)) in
      let t = Array.of_list targets in
      let row_targets = [| t.(0); t.(1); t.(2) |] in
      let col_targets = [| t.(3); t.(4); t.(5) |] in
      let { Ic_estimation.Ipf.tm = fitted; _ } =
        Ic_estimation.Ipf.fit tm ~row_targets ~col_targets
      in
      let rows_ok =
        Ic_linalg.Vec.approx_equal ~tol:1e-5 row_targets
          (Ic_traffic.Marginals.ingress fitted)
      in
      (* IPF only rescales rows and columns: 2x2 odds ratios survive *)
      let ratio m =
        Tm.get m 0 0 *. Tm.get m 1 1 /. (Tm.get m 0 1 *. Tm.get m 1 0)
      in
      rows_ok && Float.abs (ratio tm -. ratio fitted) < 1e-4 *. ratio tm)

let test_ipf_validation () =
  let tm = Tm.create 2 in
  Alcotest.check_raises "negative targets"
    (Invalid_argument "Ipf.fit: negative targets") (fun () ->
      ignore
        (Ic_estimation.Ipf.fit tm ~row_targets:[| -1.; 1. |]
           ~col_targets:[| 0.; 0. |]));
  Alcotest.check_raises "NaN row target"
    (Invalid_argument "Ipf.fit: non-finite targets") (fun () ->
      ignore
        (Ic_estimation.Ipf.fit tm ~row_targets:[| nan; 1. |]
           ~col_targets:[| 1.; 1. |]));
  Alcotest.check_raises "infinite column target"
    (Invalid_argument "Ipf.fit: non-finite targets") (fun () ->
      ignore
        (Ic_estimation.Ipf.fit tm ~row_targets:[| 1.; 1. |]
           ~col_targets:[| 1.; infinity |]))

(* --- Tomogravity --- *)

let line_routing () = Routing.build (Ic_topology.Topologies.star ~n:4)

let ic_tm n seed =
  let rng = Ic_prng.Rng.create seed in
  let activity = Array.init n (fun _ -> Ic_prng.Rng.float_range rng 1e6 1e7) in
  let preference =
    Vec.normalize_sum (Array.init n (fun _ -> Ic_prng.Rng.float_range rng 0.1 1.))
  in
  Ic_core.Model.simplified ~f:0.22 ~activity ~preference

let test_tomogravity_consistent_prior_unchanged () =
  let routing = line_routing () in
  let truth = ic_tm 4 1 in
  let y = Routing.link_loads routing (Tm.to_vector truth) in
  let est = Ic_estimation.Tomogravity.estimate routing ~link_loads:y ~prior:truth in
  Alcotest.(check bool) "prior returned" true (Tm.approx_equal truth est)

let test_tomogravity_improves_prior () =
  let routing = line_routing () in
  let truth = ic_tm 4 2 in
  let y = Routing.link_loads routing (Tm.to_vector truth) in
  let prior = Ic_gravity.Gravity.of_tm truth in
  let est = Ic_estimation.Tomogravity.estimate routing ~link_loads:y ~prior in
  let e_prior = Ic_traffic.Error.rel_l2_temporal truth prior in
  let e_est = Ic_traffic.Error.rel_l2_temporal truth est in
  Alcotest.(check bool) "estimate beats prior" true (e_est < e_prior);
  (* and satisfies the link constraints *)
  Alcotest.(check bool)
    "constraints satisfied" true
    (Ic_estimation.Tomogravity.residual routing ~link_loads:y est < 1e-6)

let test_tomogravity_solvers_agree () =
  let routing = line_routing () in
  let truth = ic_tm 4 3 in
  let y = Routing.link_loads routing (Tm.to_vector truth) in
  let prior = Ic_gravity.Gravity.of_tm truth in
  let chol =
    Ic_estimation.Tomogravity.estimate ~solver:Ic_estimation.Tomogravity.Cholesky
      routing ~link_loads:y ~prior
  in
  let cg =
    Ic_estimation.Tomogravity.estimate ~solver:Ic_estimation.Tomogravity.Cg
      routing ~link_loads:y ~prior
  in
  Alcotest.(check bool)
    "cholesky = cg" true
    (Tm.approx_equal ~tol:1. chol cg)

let test_tomogravity_validation () =
  let routing = line_routing () in
  Alcotest.check_raises "bad loads"
    (Invalid_argument "Tomogravity.estimate: link-load dimension mismatch")
    (fun () ->
      ignore
        (Ic_estimation.Tomogravity.estimate routing ~link_loads:[| 1. |]
           ~prior:(Tm.create 4)))

let tomogravity_property =
  QCheck.Test.make ~count:40
    ~name:"tomogravity satisfies link constraints on random IC traffic"
    QCheck.(pair (int_range 0 1000) (float_range 0.05 0.45))
    (fun (seed, f) ->
      let routing = line_routing () in
      let rng = Ic_prng.Rng.create seed in
      let n = 4 in
      let activity =
        Array.init n (fun _ -> Ic_prng.Rng.float_range rng 1e6 1e7)
      in
      let preference =
        Ic_linalg.Vec.normalize_sum
          (Array.init n (fun _ -> Ic_prng.Rng.float_range rng 0.1 1.))
      in
      let truth = Ic_core.Model.simplified ~f ~activity ~preference in
      let y = Routing.link_loads routing (Tm.to_vector truth) in
      let prior = Ic_gravity.Gravity.of_tm truth in
      let est = Ic_estimation.Tomogravity.estimate routing ~link_loads:y ~prior in
      Ic_estimation.Tomogravity.residual routing ~link_loads:y est < 1e-4)

(* --- Entropy (MaxEnt refinement) --- *)

let test_entropy_consistent_prior_unchanged () =
  let routing = line_routing () in
  let truth = ic_tm 4 11 in
  let y = Routing.link_loads routing (Tm.to_vector truth) in
  let est = Ic_estimation.Entropy.estimate routing ~link_loads:y ~prior:truth in
  (* lambda = 0 satisfies the constraints: the prior is (numerically) a
     fixed point *)
  Alcotest.(check bool) "prior kept" true (Tm.approx_equal ~tol:1. truth est)

let test_entropy_satisfies_constraints () =
  let routing = line_routing () in
  let truth = ic_tm 4 12 in
  let y = Routing.link_loads routing (Tm.to_vector truth) in
  let prior = Ic_gravity.Gravity.of_tm truth in
  let est = Ic_estimation.Entropy.estimate routing ~link_loads:y ~prior in
  Alcotest.(check bool)
    "link residual small" true
    (Ic_estimation.Entropy.residual routing ~link_loads:y est < 1e-4);
  let e_prior = Ic_traffic.Error.rel_l2_temporal truth prior in
  let e_est = Ic_traffic.Error.rel_l2_temporal truth est in
  Alcotest.(check bool) "improves the prior" true (e_est < e_prior)

let test_entropy_preserves_support () =
  let routing = line_routing () in
  let truth = ic_tm 4 13 in
  let y = Routing.link_loads routing (Tm.to_vector truth) in
  let prior = Ic_gravity.Gravity.of_tm truth in
  let prior_with_zero = Tm.copy prior in
  Tm.set prior_with_zero 2 3 0.;
  let est =
    Ic_estimation.Entropy.estimate routing ~link_loads:y
      ~prior:prior_with_zero
  in
  Alcotest.(check (float 1e-12)) "zero prior entry stays zero" 0.
    (Tm.get est 2 3)

let test_entropy_close_to_tomogravity () =
  (* for mild corrections the KL and weighted-LS projections are close *)
  let routing = line_routing () in
  let truth = ic_tm 4 14 in
  let y = Routing.link_loads routing (Tm.to_vector truth) in
  let prior = Ic_gravity.Gravity.of_tm truth in
  let me = Ic_estimation.Entropy.estimate routing ~link_loads:y ~prior in
  let ls = Ic_estimation.Tomogravity.estimate routing ~link_loads:y ~prior in
  Alcotest.(check bool)
    "same ballpark" true
    (Ic_traffic.Error.rel_l2_temporal ls me < 0.1)

let test_entropy_validation () =
  let routing = line_routing () in
  Alcotest.check_raises "bad loads"
    (Invalid_argument "Entropy.estimate: link-load dimension mismatch")
    (fun () ->
      ignore
        (Ic_estimation.Entropy.estimate routing ~link_loads:[| 1. |]
           ~prior:(Tm.create 4)))

let test_pipeline_max_entropy () =
  let routing = line_routing () in
  let rng = Ic_prng.Rng.create 15 in
  let tms =
    Array.init 4 (fun _ ->
        let activity = Array.init 4 (fun _ -> Ic_prng.Rng.float_range rng 1e6 1e7) in
        Ic_core.Model.simplified ~f:0.25 ~activity
          ~preference:[| 0.4; 0.3; 0.2; 0.1 |])
  in
  let truth = Series.make binning tms in
  let config =
    { (Ic_estimation.Pipeline.default_config routing) with
      refinement = Ic_estimation.Pipeline.Max_entropy }
  in
  let result =
    Ic_estimation.Pipeline.run config ~truth
      ~prior:(Ic_estimation.Prior.gravity truth)
  in
  Alcotest.(check bool) "bounded error" true (result.mean_error < 0.5)

(* --- Pipeline --- *)

let small_series n bins seed =
  let rng = Ic_prng.Rng.create seed in
  let tms =
    Array.init bins (fun _ ->
        let activity =
          Array.init n (fun _ -> Ic_prng.Rng.float_range rng 1e6 1e7)
        in
        let preference =
          Vec.normalize_sum
            (Array.init n (fun _ -> Ic_prng.Rng.float_range rng 0.1 1.))
        in
        Ic_core.Model.simplified ~f:0.25 ~activity ~preference)
  in
  Series.make binning tms

let test_pipeline_perfect_prior () =
  let routing = line_routing () in
  let truth = small_series 4 6 4 in
  let config = Ic_estimation.Pipeline.default_config routing in
  let result = Ic_estimation.Pipeline.run config ~truth ~prior:truth in
  Alcotest.(check bool) "near-zero error" true (result.mean_error < 1e-6)

let test_pipeline_gravity_prior_reasonable () =
  let routing = line_routing () in
  let truth = small_series 4 6 5 in
  let config = Ic_estimation.Pipeline.default_config routing in
  let prior = Ic_estimation.Prior.gravity truth in
  let result = Ic_estimation.Pipeline.run config ~truth ~prior in
  Alcotest.(check bool) "bounded error" true (result.mean_error < 0.5);
  Alcotest.(check int) "per-bin errors" 6 (Array.length result.per_bin_error)

let test_pipeline_improvement_over () =
  let routing = line_routing () in
  let truth = small_series 4 4 6 in
  let config = Ic_estimation.Pipeline.default_config routing in
  let gravity =
    Ic_estimation.Pipeline.run config ~truth
      ~prior:(Ic_estimation.Prior.gravity truth)
  in
  let perfect = Ic_estimation.Pipeline.run config ~truth ~prior:truth in
  let impr =
    Ic_estimation.Pipeline.improvement_over ~baseline:gravity ~candidate:perfect
  in
  Alcotest.(check bool)
    "perfect prior improves on gravity everywhere" true
    (Array.for_all (fun x -> x > 0.) impr)

let test_pipeline_requires_marginals () =
  let routing =
    Routing.build ~with_marginals:false (Ic_topology.Topologies.star ~n:4)
  in
  let truth = small_series 4 2 7 in
  let config = Ic_estimation.Pipeline.default_config routing in
  Alcotest.check_raises "needs marginals"
    (Invalid_argument "Pipeline.run: routing must include marginal rows")
    (fun () -> ignore (Ic_estimation.Pipeline.run config ~truth ~prior:truth))

let test_pipeline_ipf_enforces_marginals () =
  let routing = line_routing () in
  let truth = small_series 4 3 8 in
  let config = Ic_estimation.Pipeline.default_config routing in
  let prior = Ic_estimation.Prior.gravity truth in
  let result = Ic_estimation.Pipeline.run config ~truth ~prior in
  (* after IPF, the estimated marginals equal the measured ones *)
  let tm0 = Series.tm truth 0 and est0 = Series.tm result.estimate 0 in
  Alcotest.(check bool)
    "ingress marginals enforced" true
    (Vec.approx_equal ~tol:1.
       (Ic_traffic.Marginals.ingress tm0)
       (Ic_traffic.Marginals.ingress est0))

(* --- Priors --- *)

let test_fanout_prior () =
  (* on a stationary fanout process, the fanout prior is near-exact *)
  let n = 4 in
  let shares =
    [| [| 0.1; 0.2; 0.3; 0.4 |]; [| 0.25; 0.25; 0.25; 0.25 |];
       [| 0.4; 0.3; 0.2; 0.1 |]; [| 0.7; 0.1; 0.1; 0.1 |] |]
  in
  let make_tm scale =
    Tm.init n (fun i j -> scale *. float_of_int (i + 1) *. shares.(i).(j))
  in
  let calibration = Series.make binning [| make_tm 10.; make_tm 20. |] in
  let target = Series.make binning [| make_tm 35. |] in
  let prior = Ic_estimation.Prior.fanout ~calibration target in
  Alcotest.(check bool)
    "exact on stationary fanout" true
    (Tm.approx_equal ~tol:1e-9 (Series.tm target 0) (Series.tm prior 0));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Prior.fanout: size mismatch") (fun () ->
      ignore
        (Ic_estimation.Prior.fanout ~calibration
           (Series.make binning [| Tm.create 3 |])))

let test_priors_only_use_observables () =
  (* the stable-fP prior must depend on the target week only through its
     marginals: two weeks with equal marginals yield equal priors *)
  let base = ic_tm 4 10 in
  let shuffled =
    (* redistribute within rows/columns while keeping both marginals: swap a
       2x2 sub-block mass-preservingly *)
    let t = Tm.copy base in
    let d = Float.min (Tm.get t 0 0) (Tm.get t 1 1) /. 2. in
    Tm.set t 0 0 (Tm.get t 0 0 -. d);
    Tm.set t 1 1 (Tm.get t 1 1 -. d);
    Tm.set t 0 1 (Tm.get t 0 1 +. d);
    Tm.set t 1 0 (Tm.get t 1 0 +. d);
    t
  in
  let s1 = Series.make binning [| base |] in
  let s2 = Series.make binning [| shuffled |] in
  let preference = Vec.normalize_sum [| 0.3; 0.3; 0.2; 0.2 |] in
  let p1 = Ic_estimation.Prior.ic_stable_fp ~f:0.22 ~preference s1 in
  let p2 = Ic_estimation.Prior.ic_stable_fp ~f:0.22 ~preference s2 in
  Alcotest.(check bool)
    "prior depends only on marginals" true
    (Tm.approx_equal ~tol:1e-3 (Series.tm p1 0) (Series.tm p2 0))

let () =
  Alcotest.run "ic_estimation"
    [
      ( "ipf",
        [
          Alcotest.test_case "matches marginals" `Quick
            test_ipf_matches_marginals;
          Alcotest.test_case "rescales inconsistent targets" `Quick
            test_ipf_rescales_inconsistent_targets;
          Alcotest.test_case "preserves proportions" `Quick
            test_ipf_preserves_proportions;
          Alcotest.test_case "seeds empty rows" `Quick
            test_ipf_seeds_empty_rows;
          Alcotest.test_case "validation" `Quick test_ipf_validation;
          Alcotest.test_case "unreachable targets not converged" `Quick
            test_ipf_unreachable_targets;
          QCheck_alcotest.to_alcotest ipf_property;
        ] );
      ( "tomogravity",
        [
          Alcotest.test_case "consistent prior unchanged" `Quick
            test_tomogravity_consistent_prior_unchanged;
          Alcotest.test_case "improves prior" `Quick
            test_tomogravity_improves_prior;
          Alcotest.test_case "solvers agree" `Quick
            test_tomogravity_solvers_agree;
          Alcotest.test_case "validation" `Quick test_tomogravity_validation;
          QCheck_alcotest.to_alcotest tomogravity_property;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "consistent prior unchanged" `Quick
            test_entropy_consistent_prior_unchanged;
          Alcotest.test_case "satisfies constraints" `Quick
            test_entropy_satisfies_constraints;
          Alcotest.test_case "preserves support" `Quick
            test_entropy_preserves_support;
          Alcotest.test_case "close to tomogravity" `Quick
            test_entropy_close_to_tomogravity;
          Alcotest.test_case "validation" `Quick test_entropy_validation;
          Alcotest.test_case "pipeline integration" `Quick
            test_pipeline_max_entropy;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "perfect prior" `Quick test_pipeline_perfect_prior;
          Alcotest.test_case "gravity prior" `Quick
            test_pipeline_gravity_prior_reasonable;
          Alcotest.test_case "improvement" `Quick
            test_pipeline_improvement_over;
          Alcotest.test_case "requires marginals" `Quick
            test_pipeline_requires_marginals;
          Alcotest.test_case "ipf enforces marginals" `Quick
            test_pipeline_ipf_enforces_marginals;
        ] );
      ( "priors",
        [
          Alcotest.test_case "fanout" `Quick test_fanout_prior;
          Alcotest.test_case "observables only" `Quick
            test_priors_only_use_observables;
        ] );
    ]
