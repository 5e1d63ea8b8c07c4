module Model = Ic_core.Model
module Params = Ic_core.Params
module Tm = Ic_traffic.Tm
module Vec = Ic_linalg.Vec

let feq = Alcotest.(check (float 1e-9))

let feq_tol tol = Alcotest.(check (float tol))

(* --- the paper's Section 3 example --- *)

let test_fig2_matrix () =
  let tm = Model.fig2_example () in
  (* paper: X_AA=200 X_AB=102 X_AC=101 / X_BA=102 X_BB=4 X_BC=3 /
     X_CA=101 X_CB=3 X_CC=2; total 618 *)
  feq "X_AA" 200. (Tm.get tm 0 0);
  feq "X_AB" 102. (Tm.get tm 0 1);
  feq "X_AC" 101. (Tm.get tm 0 2);
  feq "X_BA" 102. (Tm.get tm 1 0);
  feq "X_BB" 4. (Tm.get tm 1 1);
  feq "X_BC" 3. (Tm.get tm 1 2);
  feq "X_CC" 2. (Tm.get tm 2 2);
  feq "total" 618. (Tm.total tm)

let test_fig2_probabilities () =
  let tm = Model.fig2_example () in
  (* paper's reported conditionals: 0.50, 0.93, 0.95; marginal 0.65 *)
  feq_tol 0.005 "P(E=A|I=A)" 0.50 (Model.conditional_egress tm ~egress:0 ~ingress:0);
  feq_tol 0.005 "P(E=A|I=B)" 0.936 (Model.conditional_egress tm ~egress:0 ~ingress:1);
  feq_tol 0.005 "P(E=A|I=C)" 0.953 (Model.conditional_egress tm ~egress:0 ~ingress:2);
  feq_tol 0.005 "P(E=A)" 0.652 (Model.marginal_egress tm ~egress:0)

(* --- model evaluation --- *)

let test_simplified_formula () =
  let tm =
    Model.simplified ~f:0.3 ~activity:[| 100.; 50. |] ~preference:[| 0.25; 0.75 |]
  in
  (* X_01 = 0.3*100*0.75 + 0.7*50*0.25 = 22.5 + 8.75 *)
  feq "X_01" 31.25 (Tm.get tm 0 1);
  (* X_10 = 0.3*50*0.25 + 0.7*100*0.75 = 3.75 + 52.5 *)
  feq "X_10" 56.25 (Tm.get tm 1 0)

let test_simplified_unnormalized_preference () =
  let a = Model.simplified ~f:0.3 ~activity:[| 100.; 50. |] ~preference:[| 1.; 3. |] in
  let b = Model.simplified ~f:0.3 ~activity:[| 100.; 50. |] ~preference:[| 0.25; 0.75 |] in
  Alcotest.(check bool) "normalized internally" true (Tm.approx_equal a b)

let test_simplified_total () =
  (* total traffic = sum of activities (with normalized P) *)
  let activity = [| 120.; 45.; 80. |] in
  let tm =
    Model.simplified ~f:0.21 ~activity ~preference:[| 0.2; 0.5; 0.3 |]
  in
  feq_tol 1e-9 "total = sum A" (Vec.sum activity) (Tm.total tm)

let test_general_reduces_to_simplified () =
  let n = 4 in
  let f = 0.27 in
  let activity = [| 10.; 20.; 30.; 40. |] in
  let preference = [| 0.1; 0.2; 0.3; 0.4 |] in
  let fm = Ic_linalg.Mat.init n n (fun _ _ -> f) in
  let g = Model.general ~f_matrix:fm ~activity ~preference in
  let s = Model.simplified ~f ~activity ~preference in
  Alcotest.(check bool) "equal" true (Tm.approx_equal ~tol:1e-9 g s)

let test_marginal_identities () =
  let f = 0.22 in
  let activity = [| 5e6; 2e7; 1e5; 8e6 |] in
  let preference = [| 0.4; 0.1; 0.3; 0.2 |] in
  let tm = Model.simplified ~f ~activity ~preference in
  let pred_in = Model.predicted_ingress ~f ~activity ~preference in
  let pred_out = Model.predicted_egress ~f ~activity ~preference in
  Alcotest.(check bool)
    "ingress identity" true
    (Vec.approx_equal ~tol:1e-3 (Ic_traffic.Marginals.ingress tm) pred_in);
  Alcotest.(check bool)
    "egress identity" true
    (Vec.approx_equal ~tol:1e-3 (Ic_traffic.Marginals.egress tm) pred_out)

let marginal_identity_property =
  QCheck.Test.make ~count:80
    ~name:"marginal identities hold for random parameters"
    QCheck.(
      triple (float_range 0.01 0.99)
        (list_of_size (Gen.return 5) (float_range 1. 100.))
        (list_of_size (Gen.return 5) (float_range 0.01 1.)))
    (fun (f, act, pref) ->
      let activity = Array.of_list act in
      let preference = Array.of_list pref in
      let tm = Model.simplified ~f ~activity ~preference in
      let scale = Float.max 1. (Vec.amax (Ic_traffic.Marginals.ingress tm)) in
      Vec.approx_equal ~tol:(1e-9 *. scale)
        (Ic_traffic.Marginals.ingress tm)
        (Model.predicted_ingress ~f ~activity ~preference)
      && Vec.approx_equal ~tol:(1e-9 *. scale)
           (Ic_traffic.Marginals.egress tm)
           (Model.predicted_egress ~f ~activity ~preference))

(* the exact per-bin mirror identity behind Fit's dual-start strategy:
   swapping activity and preference roles with f -> 1-f leaves the TM
   unchanged *)
let mirror_symmetry_property =
  QCheck.Test.make ~count:80 ~name:"mirror symmetry (f,A,P) ~ (1-f,SP,A/S)"
    QCheck.(
      triple (float_range 0.05 0.95)
        (list_of_size (Gen.return 5) (float_range 1. 100.))
        (list_of_size (Gen.return 5) (float_range 0.01 1.)))
    (fun (f, act, pref) ->
      let activity = Array.of_list act in
      let preference = Vec.normalize_sum (Array.of_list pref) in
      let s = Vec.sum activity in
      let x = Model.simplified ~f ~activity ~preference in
      let x' =
        Model.simplified ~f:(1. -. f)
          ~activity:(Vec.scale s preference)
          ~preference:(Vec.scale (1. /. s) activity)
      in
      Tm.approx_equal ~tol:(1e-9 *. s) x x')

let test_model_validation () =
  Alcotest.check_raises "bad f" (Invalid_argument "Model.simplified: f out of [0,1]")
    (fun () ->
      ignore (Model.simplified ~f:1.5 ~activity:[| 1. |] ~preference:[| 1. |]));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Model.simplified: dimension mismatch") (fun () ->
      ignore (Model.simplified ~f:0.5 ~activity:[| 1. |] ~preference:[| 1.; 2. |]));
  Alcotest.check_raises "zero preference"
    (Invalid_argument "Model.simplified: zero preference") (fun () ->
      ignore (Model.simplified ~f:0.5 ~activity:[| 1. |] ~preference:[| 0. |]))

let test_series_evaluation () =
  let params : Params.stable_fp =
    {
      f = 0.25;
      preference = [| 0.5; 0.5 |];
      activity = [| [| 10.; 20. |]; [| 30.; 40. |] |];
    }
  in
  let series = Model.stable_fp params Ic_timeseries.Timebin.five_min in
  Alcotest.(check int) "bins" 2 (Ic_traffic.Series.length series);
  feq "total bin 0" 30. (Tm.total (Ic_traffic.Series.tm series 0));
  feq "total bin 1" 70. (Tm.total (Ic_traffic.Series.tm series 1))

(* --- Params --- *)

let test_dof () =
  Alcotest.(check int) "gravity" 87 (Params.dof_gravity ~n:22 ~t:2);
  Alcotest.(check int) "time varying" 132 (Params.dof_time_varying ~n:22 ~t:2);
  Alcotest.(check int) "stable f" 89 (Params.dof_stable_f ~n:22 ~t:2);
  Alcotest.(check int) "stable fP" 67 (Params.dof_stable_fp ~n:22 ~t:2)

let () =
  Alcotest.run "ic_core_model"
    [
      ( "fig2",
        [
          Alcotest.test_case "matrix" `Quick test_fig2_matrix;
          Alcotest.test_case "probabilities" `Quick test_fig2_probabilities;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "simplified formula" `Quick test_simplified_formula;
          Alcotest.test_case "unnormalized preference" `Quick
            test_simplified_unnormalized_preference;
          Alcotest.test_case "total equals activity sum" `Quick
            test_simplified_total;
          Alcotest.test_case "general reduces" `Quick
            test_general_reduces_to_simplified;
          Alcotest.test_case "marginal identities" `Quick
            test_marginal_identities;
          QCheck_alcotest.to_alcotest marginal_identity_property;
          QCheck_alcotest.to_alcotest mirror_symmetry_property;
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "series" `Quick test_series_evaluation;
        ] );
      ( "params",
        [
          Alcotest.test_case "degrees of freedom" `Quick test_dof;
        ] );
    ]
