module Model = Ic_core.Model
module Estimate_a = Ic_core.Estimate_a
module Closed_form = Ic_core.Closed_form
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Vec = Ic_linalg.Vec

let feq_tol tol = Alcotest.(check (float tol))

let binning = Ic_timeseries.Timebin.five_min

let test_design_matrix_matches_identities () =
  let f = 0.2 in
  let preference = [| 0.1; 0.3; 0.6 |] in
  let activity = [| 100.; 50.; 25. |] in
  let design = Estimate_a.design_matrix ~f ~preference in
  let predicted = Ic_linalg.Mat.mulv design activity in
  let expected_in = Model.predicted_ingress ~f ~activity ~preference in
  let expected_out = Model.predicted_egress ~f ~activity ~preference in
  for i = 0 to 2 do
    feq_tol 1e-9 "ingress row" expected_in.(i) predicted.(i);
    feq_tol 1e-9 "egress row" expected_out.(i) predicted.(i + 3)
  done

let test_activities_recovered_from_marginals () =
  let f = 0.22 in
  let preference = [| 0.45; 0.05; 0.2; 0.3 |] in
  let activity = [| 8e6; 3e7; 1e6; 5e6 |] in
  let tm = Model.simplified ~f ~activity ~preference in
  let estimated =
    Estimate_a.activities ~f ~preference
      ~ingress:(Ic_traffic.Marginals.ingress tm)
      ~egress:(Ic_traffic.Marginals.egress tm)
  in
  Alcotest.(check bool)
    "recovered" true
    (Vec.approx_equal ~tol:10. activity estimated)

let estimate_a_property =
  QCheck.Test.make ~count:60 ~name:"activities invert the model marginals"
    QCheck.(
      triple (float_range 0.05 0.45)
        (list_of_size (Gen.return 4) (float_range 1e4 1e7))
        (list_of_size (Gen.return 4) (float_range 0.05 1.)))
    (fun (f, act, pref) ->
      let activity = Array.of_list act in
      let preference = Array.of_list pref in
      let tm = Model.simplified ~f ~activity ~preference in
      let estimated =
        Estimate_a.activities ~f ~preference
          ~ingress:(Ic_traffic.Marginals.ingress tm)
          ~egress:(Ic_traffic.Marginals.egress tm)
      in
      let scale = Vec.nrm2 activity in
      Vec.nrm2_diff activity estimated < 1e-5 *. scale)

let test_prior_series_exact_on_model_data () =
  let f = 0.25 in
  let preference = [| 0.3; 0.3; 0.4 |] in
  let activity = [| [| 1e6; 2e6; 3e6 |]; [| 3e6; 1e6; 2e6 |] |] in
  let params : Ic_core.Params.stable_fp = { f; preference; activity } in
  let series = Model.stable_fp params binning in
  let prior = Estimate_a.prior_series ~f ~preference series in
  let errs = Ic_traffic.Error.rel_l2_series series prior in
  Array.iter (fun e -> feq_tol 1e-6 "exact reconstruction" 0. e) errs

(* --- Nnls.solve_gram at engine size --- *)

module Mat = Ic_linalg.Mat
module Nnls = Ic_linalg.Nnls

let same_bits x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x y

(* The engine prior's system: the 22-node design at a random (f, P) with
   the paper's lognormal preferences, and marginals of lognormal activities
   with 1-5 nodes' marginals zeroed, as when their polls drop out. A zeroed
   node forces a negative unconstrained activity, so most draws leave the
   interior. [engine_design] draws the design and (f, P), [engine_marginals]
   one bin's marginals for it. *)
let engine_design rng =
  let n = 22 in
  let f = Ic_prng.Rng.float_range rng 0.05 0.45 in
  let preference =
    Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:(-4.3) ~sigma:1.7)
  in
  (Estimate_a.design_matrix ~f ~preference, (f, preference))

let engine_marginals rng design =
  let n = snd (Mat.dims design) in
  let activity =
    Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:15. ~sigma:1.)
  in
  let b = Mat.mulv design activity in
  let zeroed = 1 + Ic_prng.Rng.int rng 5 in
  let k = ref 0 in
  while !k < zeroed do
    let i = Ic_prng.Rng.int rng n in
    if b.(i) <> 0. then begin
      b.(i) <- 0.;
      b.(n + i) <- 0.;
      incr k
    end
  done;
  b

(* Returns the design, the marginals and (f, P). *)
let engine_like seed =
  let rng = Ic_prng.Rng.create seed in
  let design, fp = engine_design rng in
  (design, engine_marginals rng design, fp)

(* Designs like bench's NNLS fixture: a dense 2n x n matrix with uniform
   entries in [-1, 1] and a right-hand side in [-1, 2], n in 1..22. *)
let random_dense seed =
  let rng = Ic_prng.Rng.create seed in
  let n = 1 + Ic_prng.Rng.int rng 22 in
  let a = Mat.init (2 * n) n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let b = Array.init (2 * n) (fun _ -> Ic_prng.Rng.float_range rng (-1.) 2.) in
  (a, b)

(* The corrections the support start makes, over every draw: coordinates
   positive in the unconstrained solve but zero in the answer ([dropped]),
   and non-positive there but positive in the answer ([added]). *)
type corrections = { mutable dropped : int; mutable added : int }

let check_solve_gram tally a b =
  let g = Mat.gram a and c = Mat.mulv_t a b in
  let factor = Nnls.full_factor g in
  let x = Nnls.solve_gram g c in
  if not (Array.for_all (fun v -> v >= 0.) x) then
    QCheck.Test.fail_report "negative entry";
  let kkt = Nnls.kkt_violation a b x in
  if kkt > 1e-8 then QCheck.Test.fail_reportf "KKT violation %.3g" kkt;
  if not (same_bits x (Nnls.solve_system (Nnls.system ~factor g) c)) then
    QCheck.Test.fail_report "system ~factor:(full_factor g) moved bits";
  Array.iteri
    (fun i zi ->
      if zi > 0. && x.(i) = 0. then tally.dropped <- tally.dropped + 1;
      if zi <= 0. && x.(i) > 0. then tally.added <- tally.added + 1)
    (Ic_linalg.Chol.solve factor c);
  true

let test_solve_gram_engine_size () =
  let tally = { dropped = 0; added = 0 } in
  let seeds = QCheck.int_bound 1_000_000_000 in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"engine-like" seeds (fun seed ->
         let design, b, (f, preference) = engine_like seed in
         let n = Array.length preference in
         let ingress = Array.sub b 0 n and egress = Array.sub b n n in
         (* The prior cache's system holds the factor solve_gram would
            compute for itself, so it must return activities' bits. *)
         if
           not
             (same_bits
                (Estimate_a.activities ~f ~preference ~ingress ~egress)
                (Estimate_a.activities_cached
                   (Estimate_a.make_cache ~f ~preference)
                   ~ingress ~egress))
         then QCheck.Test.fail_report "activities_cached moved bits";
         check_solve_gram tally design b));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"random dense" seeds (fun seed ->
         let a, b = random_dense seed in
         check_solve_gram tally a b));
  Alcotest.(check bool) "some support coordinates dropped" true (tally.dropped > 0);
  Alcotest.(check bool) "some coordinates added" true (tally.added > 0)

(* One system answers many right-hand sides, as the prior cache and the
   fit's sweeps use it. Every answer must carry a fresh [solve_gram]'s
   bits, through a system on the ridged full factor and through one on the
   unridged factor the fit holds; the fit falls back to NNLS only when that
   factor's solve leaves the interior, so only those answers are compared.
   A Gram with no unridged factor (the fit then builds the ridged system)
   is checked through the ridged one alone. Returns the support of every
   answer. *)
let check_shared_system g rhs =
  let n, _ = Mat.dims g in
  let ridged = Nnls.system g in
  let unridged =
    match Ic_linalg.Chol.factorize_into ~l:(Mat.create n n) g with
    | Ok ch -> Some (ch, Nnls.system ~factor:ch g)
    | Error (`Not_positive_definite _) -> None
  in
  List.map
    (fun c ->
      let fresh = Nnls.solve_gram g c in
      if not (same_bits fresh (Nnls.solve_system ridged c)) then
        Alcotest.fail "ridged system moved bits";
      (match unridged with
      | Some (ch, sys) ->
          let z = Ic_linalg.Chol.solve ch c in
          if
            (not (Array.for_all (fun v -> v > 0.) z))
            && not (same_bits fresh (Nnls.solve_system sys c))
          then Alcotest.fail "unridged system moved bits"
      | None -> ());
      String.init n (fun i -> if fresh.(i) > 0. then '1' else '0'))
    rhs

(* The supports must both repeat within a Gram (so memoized factors are
   reused) and differ at equal size (so a memo keyed by anything coarser
   than the exact set answers wrongly). *)
let check_support_mix supports =
  let size s = String.fold_left (fun k ch -> k + Bool.to_int (ch = '1')) 0 s in
  let repeats = ref 0 and same_size = ref 0 in
  List.iter
    (fun per_gram ->
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j then
                if a = b then incr repeats
                else if size a = size b then incr same_size)
            per_gram)
        per_gram)
    supports;
  Alcotest.(check bool) "supports repeat" true (!repeats > 0);
  Alcotest.(check bool) "equal-size supports differ" true (!same_size > 0)

let test_shared_system () =
  let engine =
    List.init 30 (fun seed ->
        let rng = Ic_prng.Rng.create (1000 + seed) in
        let design, _ = engine_design rng in
        check_shared_system (Mat.gram design)
          (List.init 24 (fun _ ->
               Mat.mulv_t design (engine_marginals rng design))))
  in
  check_support_mix engine;
  (* The singular duplicate-column Gram, as in the linalg suite. *)
  let rng = Ic_prng.Rng.create 17 in
  let base = Mat.init 10 4 (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let a = Mat.init 10 6 (fun i j -> Mat.get base i (if j >= 4 then j - 3 else j)) in
  ignore
    (check_shared_system (Mat.gram a)
       (List.init 24 (fun _ ->
            Mat.mulv_t a
              (Array.init 10 (fun _ -> Ic_prng.Rng.float_range rng (-1.) 2.)))))

(* --- Nnls.solve_rank_one against Lawson–Hanson --- *)

(* One draw: G = d I + b p pᵀ and c. [p] has zero entries a fifth of the
   time each; [b] is 0 a fifth of the time, else up to 10 d / ‖p‖², so the
   Gram's condition number stays below 11; [c] is of mixed signs, all
   negative, or one large positive entry against small mixed ones under a
   large [b], which leaves that coordinate alone active. *)
let rank_one_draw seed =
  let module Rng = Ic_prng.Rng in
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 12 in
  let p =
    Array.init n (fun _ ->
        if Rng.float rng < 0.2 then 0. else Rng.float_range rng 0.01 1.)
  in
  let pp = Vec.dot p p in
  let d = Rng.float_range rng 0.1 10. in
  let mode = Rng.int rng 3 in
  let b =
    if Rng.float rng < 0.2 || pp = 0. then 0.
    else
      let kappa = if mode = 2 then 10. else Rng.float_range rng 0.1 10. in
      kappa *. d /. pp
  in
  let c =
    match mode with
    | 0 -> Array.init n (fun _ -> Rng.float_range rng (-1.) 1.)
    | 1 -> Array.init n (fun _ -> Rng.float_range rng (-1.) (-0.01))
    | _ ->
        let top = Rng.int rng n in
        Array.init n (fun k ->
            if k = top then Rng.float_range rng 20. 100.
            else Rng.float_range rng (-1.) 1.)
  in
  (n, d, b, p, c)

let test_rank_one_matches_lawson_hanson () =
  let tally = Hashtbl.create 8 in
  let seen what = Hashtbl.replace tally what () in
  let seeds = QCheck.int_bound 1_000_000_000 in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"solve_rank_one = solve_gram" seeds
       (fun seed ->
         let n, d, b, p, c = rank_one_draw seed in
         let g = Mat.init n n (fun i j -> (if i = j then d else 0.) +. (b *. p.(i) *. p.(j))) in
         let x = Nnls.solve_rank_one ~d ~b p c in
         let y = Nnls.solve_gram g c in
         let scale = Float.max (Vec.amax x) (Vec.amax y) in
         let diff = Vec.amax (Vec.sub x y) in
         if diff > 1e-9 *. scale then
           QCheck.Test.fail_reportf "n %d: max |x - lh| %.3g against %.3g" n
             diff scale;
         if not (Array.for_all (fun v -> v >= 0.) x) then
           QCheck.Test.fail_report "negative entry";
         (* A = [√d I; √b pᵀ] and [c / √d; 0] have the normal equations
            G x = c. *)
         let a =
           Mat.init (n + 1) n (fun i j ->
               if i = n then Float.sqrt b *. p.(j)
               else if i = j then Float.sqrt d
               else 0.)
         in
         let rhs =
           Array.init (n + 1) (fun i -> if i = n then 0. else c.(i) /. Float.sqrt d)
         in
         let kkt = Nnls.kkt_violation a rhs x in
         if kkt > 1e-8 then QCheck.Test.fail_reportf "KKT violation %.3g" kkt;
         let positive = Array.fold_left (fun k v -> if v > 0. then k + 1 else k) 0 x in
         if Array.exists (( = ) 0.) p then seen "p with zero entries";
         if Array.exists (fun v -> v > 0.) c && Array.exists (fun v -> v < 0.) c
         then seen "c of mixed signs";
         if Array.for_all (fun v -> v < 0.) c then seen "c all negative";
         if b = 0. then seen "b = 0";
         if n = 1 then seen "n = 1";
         if n >= 2 && positive = 1 then seen "one coordinate left active";
         if positive = n then seen "every coordinate positive";
         if positive > 1 && positive < n then seen "some coordinates clamped";
         true));
  List.iter
    (fun what ->
      if not (Hashtbl.mem tally what) then
        Alcotest.failf "no draw with %s" what)
    [
      "p with zero entries";
      "c of mixed signs";
      "c all negative";
      "b = 0";
      "n = 1";
      "one coordinate left active";
      "every coordinate positive";
      "some coordinates clamped";
    ];
  (* d = 0 returns zeros; a negative p entry, b or d is refused. *)
  Alcotest.(check (array (float 0.)))
    "d = 0" [| 0.; 0. |]
    (Nnls.solve_rank_one ~d:0. ~b:1. [| 1.; 2. |] [| 3.; 4. |]);
  Alcotest.check_raises "negative p"
    (Invalid_argument "Nnls.solve_rank_one: negative p") (fun () ->
      ignore (Nnls.solve_rank_one ~d:1. ~b:1. [| 1.; -2. |] [| 3.; 4. |]));
  Alcotest.check_raises "negative b"
    (Invalid_argument "Nnls.solve_rank_one: d and b must be non-negative")
    (fun () -> ignore (Nnls.solve_rank_one ~d:1. ~b:(-1.) [| 1. |] [| 3. |]))

(* --- Closed_form --- *)

let test_closed_form_inverts_model () =
  let f = 0.2 in
  let preference = [| 0.5; 0.2; 0.3 |] in
  let activity = [| 9e6; 2e6; 4e6 |] in
  let tm = Model.simplified ~f ~activity ~preference in
  match
    Closed_form.estimate ~f
      ~ingress:(Ic_traffic.Marginals.ingress tm)
      ~egress:(Ic_traffic.Marginals.egress tm)
  with
  | Error `F_near_half -> Alcotest.fail "not degenerate"
  | Ok e ->
      Alcotest.(check bool)
        "activity recovered" true
        (Vec.approx_equal ~tol:1. activity e.activity);
      Alcotest.(check bool)
        "preference recovered" true
        (Vec.approx_equal ~tol:1e-6 preference e.preference)

let closed_form_property =
  QCheck.Test.make ~count:60 ~name:"closed form inverts model marginals"
    QCheck.(
      triple (float_range 0.05 0.4)
        (list_of_size (Gen.return 5) (float_range 1e4 1e7))
        (list_of_size (Gen.return 5) (float_range 0.05 1.)))
    (fun (f, act, pref) ->
      let activity = Array.of_list act in
      let preference = Vec.normalize_sum (Array.of_list pref) in
      let tm = Model.simplified ~f ~activity ~preference in
      match
        Closed_form.estimate ~f
          ~ingress:(Ic_traffic.Marginals.ingress tm)
          ~egress:(Ic_traffic.Marginals.egress tm)
      with
      | Error `F_near_half -> false
      | Ok e ->
          Vec.nrm2_diff activity e.activity < 1e-6 *. Vec.nrm2 activity
          && Vec.nrm2_diff preference e.preference < 1e-8)

let test_closed_form_degenerate () =
  match Closed_form.estimate ~f:0.5 ~ingress:[| 1. |] ~egress:[| 1. |] with
  | Error `F_near_half -> ()
  | Ok _ -> Alcotest.fail "expected degeneracy at f = 1/2"

let test_closed_form_clamps_noise () =
  (* marginals inconsistent with any IC solution: estimates stay feasible *)
  match Closed_form.estimate ~f:0.2 ~ingress:[| 0.; 10. |] ~egress:[| 100.; 0. |] with
  | Error `F_near_half -> Alcotest.fail "not degenerate"
  | Ok e ->
      Alcotest.(check bool) "nonneg activity" true
        (Array.for_all (fun x -> x >= 0.) e.activity);
      feq_tol 1e-9 "normalized preference" 1. (Vec.sum e.preference)

let test_closed_form_prior_series () =
  let f = 0.3 in
  let preference = [| 0.25; 0.25; 0.5 |] in
  let activity = [| [| 1e6; 2e6; 3e6 |]; [| 2e6; 2e6; 2e6 |] |] in
  let params : Ic_core.Params.stable_fp = { f; preference; activity } in
  let series = Model.stable_fp params binning in
  let prior = Closed_form.prior_series ~f series in
  let errs = Ic_traffic.Error.rel_l2_series series prior in
  Array.iter (fun e -> feq_tol 1e-6 "exact on model data" 0. e) errs;
  Alcotest.check_raises "f near half rejected"
    (Invalid_argument "Closed_form.prior_series: f too close to 1/2")
    (fun () -> ignore (Closed_form.prior_series ~f:0.5 series))

let test_wrong_f_biases_closed_form () =
  (* using a wrong f yields a biased but still usable prior *)
  let f_true = 0.2 in
  let preference = [| 0.5; 0.3; 0.2 |] in
  let activity = [| [| 5e6; 1e6; 3e6 |] |] in
  let params : Ic_core.Params.stable_fp = { f = f_true; preference; activity } in
  let series = Model.stable_fp params binning in
  let good = Closed_form.prior_series ~f:f_true series in
  let biased = Closed_form.prior_series ~f:0.35 series in
  let err p = (Ic_traffic.Error.rel_l2_series series p).(0) in
  Alcotest.(check bool) "wrong f is worse" true (err biased > err good);
  Alcotest.(check bool) "but bounded" true (err biased < 1.)

let () =
  Alcotest.run "ic_core_estimators"
    [
      ( "estimate_a",
        [
          Alcotest.test_case "design matrix" `Quick
            test_design_matrix_matches_identities;
          Alcotest.test_case "recovers activities" `Quick
            test_activities_recovered_from_marginals;
          QCheck_alcotest.to_alcotest estimate_a_property;
          Alcotest.test_case "prior series exact" `Quick
            test_prior_series_exact_on_model_data;
        ] );
      ( "nnls",
        [
          Alcotest.test_case "solve_gram at engine size" `Quick
            test_solve_gram_engine_size;
          Alcotest.test_case "one system, many right-hand sides" `Quick
            test_shared_system;
          Alcotest.test_case "closed form on d I + b p pT" `Quick
            test_rank_one_matches_lawson_hanson;
        ] );
      ( "closed_form",
        [
          Alcotest.test_case "inverts model" `Quick
            test_closed_form_inverts_model;
          QCheck_alcotest.to_alcotest closed_form_property;
          Alcotest.test_case "degenerate f" `Quick test_closed_form_degenerate;
          Alcotest.test_case "clamps noise" `Quick
            test_closed_form_clamps_noise;
          Alcotest.test_case "prior series" `Quick
            test_closed_form_prior_series;
          Alcotest.test_case "wrong f bias" `Quick
            test_wrong_f_biases_closed_form;
        ] );
    ]
