module Fit = Ic_core.Fit
module Model = Ic_core.Model
module Params = Ic_core.Params
module Series = Ic_traffic.Series
module Tm = Ic_traffic.Tm
module Vec = Ic_linalg.Vec

let feq_tol tol = Alcotest.(check (float tol))

let binning = Ic_timeseries.Timebin.five_min

(* A clean stable-fP world with diverse activity shapes, so the model is
   identifiable. *)
let clean_world ?(f = 0.22) ?(bins = 48) ?(n = 6) seed =
  let rng = Ic_prng.Rng.create seed in
  let preference =
    Vec.normalize_sum
      (Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:(-2.) ~sigma:1.2))
  in
  let base =
    Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:16. ~sigma:1.)
  in
  let phase = Array.init n (fun _ -> Ic_prng.Rng.float_range rng 0. 6.28) in
  let activity =
    Array.init bins (fun t ->
        Array.init n (fun i ->
            base.(i)
            *. (1.2 +. sin ((float_of_int t /. 8.) +. phase.(i)))))
  in
  let params : Params.stable_fp = { f; preference; activity } in
  (params, Model.stable_fp params binning)

let test_fit_recovers_clean_params () =
  let truth, series = clean_world 1 in
  let fit = Fit.fit_stable_fp series in
  feq_tol 0.01 "f recovered" truth.f fit.params.f;
  Alcotest.(check bool)
    "preference recovered" true
    (Vec.approx_equal ~tol:0.005 truth.preference fit.params.preference);
  Alcotest.(check bool) "near-zero error" true (fit.mean_error < 0.01)

let test_fit_activity_recovered () =
  let truth, series = clean_world 2 in
  let fit = Fit.fit_stable_fp series in
  let rel =
    Vec.nrm2_diff truth.activity.(10) fit.params.activity.(10)
    /. Vec.nrm2 truth.activity.(10)
  in
  Alcotest.(check bool) "activity bin recovered" true (rel < 0.02)

let test_fit_with_noise () =
  let truth, series = clean_world 3 in
  let rng = Ic_prng.Rng.create 99 in
  let noisy =
    Series.map
      (fun tm ->
        Tm.init (Tm.size tm) (fun i j ->
            Tm.get tm i j
            *. exp (Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.1)))
      series
  in
  let fit = Fit.fit_stable_fp noisy in
  feq_tol 0.03 "f within 0.03 under 10% noise" truth.f fit.params.f;
  Alcotest.(check bool) "error near noise floor" true (fit.mean_error < 0.15)

let test_fit_dual_start_mirror () =
  (* even when started at the mirrored value, the fitter lands below 1/2 on
     identifiable data *)
  let truth, series = clean_world 5 in
  let options = { Fit.default_options with f_init = 0.78 } in
  let fit = Fit.fit_stable_fp ~options series in
  feq_tol 0.01 "recovers the physical branch" truth.f fit.params.f

(* --- warm refits ------------------------------------------------------ *)

let bits = Int64.bits_of_float

let floats_bitwise a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits x = bits y) a b

let check_same_fit msg (a : Params.stable_fp Fit.fitted)
    (b : Params.stable_fp Fit.fitted) =
  Alcotest.(check bool) (msg ^ ": f") true (bits a.params.f = bits b.params.f);
  Alcotest.(check bool)
    (msg ^ ": preference") true
    (floats_bitwise a.params.preference b.params.preference);
  Alcotest.(check bool)
    (msg ^ ": activities") true
    (Array.length a.params.activity = Array.length b.params.activity
    && Array.for_all2 floats_bitwise a.params.activity b.params.activity);
  Alcotest.(check bool)
    (msg ^ ": per-bin errors") true
    (floats_bitwise a.per_bin_error b.per_bin_error);
  Alcotest.(check int) (msg ^ ": sweeps") a.sweeps b.sweeps

let noisy_world seed =
  let _, series = clean_world seed in
  let rng = Ic_prng.Rng.create (seed + 100) in
  Series.map
    (fun tm ->
      Tm.init (Tm.size tm) (fun i j ->
          Tm.get tm i j *. exp (Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.1)))
    series

let test_warm_matches_cold () =
  (* In its own basin, a warm fit runs exactly the branch a cold fit keeps:
     bit-identical output, the mirrored descent skipped. *)
  List.iter
    (fun (label, series) ->
      List.iter
        (fun f_init ->
          let options = { Fit.default_options with f_init } in
          let cold = Fit.fit_stable_fp ~options series in
          Alcotest.(check bool) (label ^ ": cold fit lands at f <= 1/2") true
            (cold.params.f <= 0.5);
          Alcotest.(check bool) (label ^ ": cold fit dual-starts") true
            cold.both_basins;
          List.iter
            (fun incumbent ->
              let warm = Fit.fit_stable_fp ~options ~incumbent series in
              let msg = Printf.sprintf "%s f_init %g incumbent %g" label f_init incumbent in
              check_same_fit msg cold warm;
              Alcotest.(check bool) (msg ^ ": guard quiet") false
                warm.both_basins)
            [ cold.mean_error; 1. ])
        [ 0.25; 0.4 ])
    [ ("clean", snd (clean_world 1)); ("10% noise", noisy_world 3) ]

let test_warm_guard_leaves_wrong_basin () =
  (* An incumbent in the mirrored basin (f_init = 0.78). Against a perfect
     incumbent the warm error trips the guard, which runs the physical
     branch and picks exactly as a cold fit does. On this world the
     mirrored descent also ends on the bound 1/2, so the guard fires at any
     incumbent error. *)
  let truth, series = clean_world 5 in
  let options = { Fit.default_options with f_init = 0.78 } in
  let cold = Fit.fit_stable_fp ~options series in
  List.iter
    (fun incumbent ->
      let msg = Printf.sprintf "incumbent %g" incumbent in
      let guarded = Fit.fit_stable_fp ~options ~incumbent series in
      Alcotest.(check bool) (msg ^ ": guard fired") true guarded.both_basins;
      check_same_fit (msg ^ ": guarded = cold") cold guarded;
      feq_tol 0.01 (msg ^ ": physical branch") truth.f guarded.params.f)
    [ 0.; 10. ];
  (* Where the mirrored basin is interior, an incumbent no better than the
     mirrored fit keeps the guard quiet: the fit stays at f >= 1/2, so only
     the guard ever leaves a basin. *)
  let _, series = clean_world 1 in
  let kept = Fit.fit_stable_fp ~options ~incumbent:10. series in
  Alcotest.(check bool) "guard quiet" false kept.both_basins;
  Alcotest.(check bool) "stays at f > 1/2" true (kept.params.f > 0.5);
  let guarded = Fit.fit_stable_fp ~options ~incumbent:0. series in
  Alcotest.(check bool) "error trips the guard" true guarded.both_basins;
  check_same_fit "guarded = cold" (Fit.fit_stable_fp ~options series) guarded

let test_max_sweeps_rejected () =
  let _, series = clean_world ~bins:4 4 in
  let options = { Fit.default_options with max_sweeps = 0 } in
  let rejects name fit =
    Alcotest.check_raises name
      (Invalid_argument "Fit: max_sweeps must be >= 1") (fun () -> fit ())
  in
  rejects "stable-fP" (fun () -> ignore (Fit.fit_stable_fp ~options series));
  rejects "stable-f" (fun () -> ignore (Fit.fit_stable_f ~options series));
  rejects "time-varying" (fun () ->
      ignore (Fit.fit_time_varying ~options series));
  rejects "time-varying, no bins" (fun () ->
      ignore (Fit.fit_time_varying ~options { series with tms = [||] }))

let test_gravity_fit_rank_one () =
  (* gravity fit is exact on a rank-one TM *)
  let u = [| 1.; 2.; 3. |] and v = [| 0.5; 0.25; 0.25 |] in
  let tm = Tm.init 3 (fun i j -> u.(i) *. v.(j)) in
  let series = Series.make binning [| tm |] in
  let g = Fit.gravity_fit series in
  Alcotest.(check bool)
    "exact" true
    (Tm.approx_equal ~tol:1e-9 tm (Series.tm g 0))

let test_gravity_fit_worse_on_ic_data () =
  let _, series = clean_world ~f:0.2 6 in
  let ic = Fit.fit_stable_fp series in
  let g_err = Fit.per_bin_error series (Fit.gravity_fit series) in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  Alcotest.(check bool) "gravity worse" true (mean g_err > ic.mean_error)

let test_fit_stable_f () =
  let truth, series = clean_world 7 in
  let fit = Fit.fit_stable_f series in
  feq_tol 0.02 "f recovered" truth.f fit.params.f;
  Alcotest.(check bool) "error small" true (fit.mean_error < 0.02);
  Alcotest.(check int) "per-bin preferences" (Series.length series)
    (Array.length fit.params.preference)

let test_fit_time_varying () =
  let truth, series = clean_world ~bins:12 8 in
  let fit = Fit.fit_time_varying series in
  Alcotest.(check bool) "error small" true (fit.mean_error < 0.02);
  (* each bin's f near the truth *)
  Array.iter (fun f -> feq_tol 0.05 "per-bin f" truth.f f) fit.params.f

let test_variant_ordering () =
  (* more flexible variants fit at least as well (up to solver tolerance) *)
  let _, series = clean_world 9 in
  let rng = Ic_prng.Rng.create 17 in
  let noisy =
    Series.map
      (fun tm ->
        Tm.init (Tm.size tm) (fun i j ->
            Tm.get tm i j
            *. exp (Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.15)))
      series
  in
  let fp = Fit.fit_stable_fp noisy in
  let sf = Fit.fit_stable_f noisy in
  let tv = Fit.fit_time_varying noisy in
  Alcotest.(check bool) "stable-f <= stable-fP + tol" true
    (sf.mean_error <= fp.mean_error +. 0.01);
  Alcotest.(check bool) "time-varying <= stable-f + tol" true
    (tv.mean_error <= sf.mean_error +. 0.01)

let test_time_varying_is_per_bin_stable_fp () =
  (* Equation 3 shares no parameter across bins, so each bin of a
     time-varying fit is the cold stable-fP fit of that bin alone, bit for
     bit; an all-zero bin included. *)
  let _, series = clean_world ~bins:12 12 in
  let rng = Ic_prng.Rng.create 112 in
  let noisy =
    Series.map
      (fun tm ->
        Tm.init (Tm.size tm) (fun i j ->
            Tm.get tm i j
            *. exp (Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.2)))
      series
  in
  let zero_bin = 5 in
  let noisy =
    {
      noisy with
      tms =
        Array.mapi
          (fun t tm -> if t = zero_bin then Tm.create (Tm.size tm) else tm)
          noisy.tms;
    }
  in
  let tv = Fit.fit_time_varying noisy in
  for t = 0 to Series.length noisy - 1 do
    let one = Fit.fit_stable_fp (Series.sub noisy ~pos:t ~len:1) in
    let same msg ok =
      Alcotest.(check bool) (Printf.sprintf "bin %d: %s" t msg) true ok
    in
    same "f" (bits one.params.f = bits tv.params.f.(t));
    same "preference"
      (floats_bitwise one.params.preference tv.params.preference.(t));
    same "activities"
      (floats_bitwise one.params.activity.(0) tv.params.activity.(t));
    same "error" (floats_bitwise one.per_bin_error [| tv.per_bin_error.(t) |])
  done

let test_fit_general_f_recovery () =
  (* general-f estimation on clean general-model data *)
  let n = 5 and bins = 60 in
  let rng = Ic_prng.Rng.create 21 in
  let preference =
    Vec.normalize_sum (Array.init n (fun _ -> Ic_prng.Rng.float_range rng 0.5 2.))
  in
  let f_matrix =
    Ic_linalg.Mat.init n n (fun i j ->
        if i = j then 0.25
        else 0.15 +. (0.2 *. Ic_prng.Rng.float rng))
  in
  let base = Array.init n (fun _ -> Ic_prng.Rng.float_range rng 1e6 5e6) in
  let phase = Array.init n (fun _ -> Ic_prng.Rng.float_range rng 0. 6.28) in
  let activity =
    Array.init bins (fun t ->
        Array.init n (fun i ->
            base.(i) *. (1.5 +. sin ((float_of_int t /. 5.) +. phase.(i)))))
  in
  let tms =
    Array.map
      (fun a -> Model.general ~f_matrix ~activity:a ~preference)
      activity
  in
  let series = Series.make binning tms in
  (* give the estimator the exact P and A, as Fit.fit_general_f expects *)
  let params : Params.stable_fp = { f = 0.25; preference; activity } in
  let fitted = Fit.fit_general_f params series in
  let max_err = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        max_err :=
          Float.max !max_err
            (Float.abs (Ic_linalg.Mat.get fitted i j -. Ic_linalg.Mat.get f_matrix i j))
    done
  done;
  Alcotest.(check bool) "f_ij recovered within 0.02" true (!max_err < 0.02)

let test_pgd_agrees_with_bcd () =
  (* two different optimization families, one bilinear problem: on clean
     data both must recover the generator; under noise they must land
     within a few percent of each other *)
  let truth, series = clean_world ~bins:24 10 in
  let pgd = Ic_core.Pgd.fit_stable_fp series in
  feq_tol 0.02 "pgd recovers f" truth.f pgd.params.f;
  Alcotest.(check bool) "pgd near-zero error" true (pgd.mean_error < 0.03);
  let rng = Ic_prng.Rng.create 71 in
  let noisy =
    Series.map
      (fun tm ->
        Tm.init (Tm.size tm) (fun i j ->
            Tm.get tm i j
            *. exp (Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.1)))
      series
  in
  let bcd = Fit.fit_stable_fp noisy in
  let pgd = Ic_core.Pgd.fit_stable_fp noisy in
  feq_tol 0.03 "optimizers agree on f" bcd.params.f pgd.params.f;
  Alcotest.(check bool)
    "optimizers agree on error level" true
    (Float.abs (bcd.mean_error -. pgd.mean_error) < 0.05);
  Alcotest.(check bool)
    "preferences agree" true
    (Ic_stats.Corr.pearson bcd.params.preference pgd.params.preference > 0.98)

let test_per_bin_error_zero_bins () =
  let tm = Tm.create 3 in
  let series = Series.make binning [| tm |] in
  let errs = Fit.per_bin_error series series in
  feq_tol 1e-12 "zero bin yields zero error" 0. errs.(0)

let () =
  Alcotest.run "ic_core_fit"
    [
      ( "stable-fp",
        [
          Alcotest.test_case "recovers clean parameters" `Quick
            test_fit_recovers_clean_params;
          Alcotest.test_case "recovers activities" `Quick
            test_fit_activity_recovered;
          Alcotest.test_case "robust to noise" `Quick test_fit_with_noise;
          Alcotest.test_case "dual start escapes mirror" `Quick
            test_fit_dual_start_mirror;
          Alcotest.test_case "warm fit in its basin matches cold" `Quick
            test_warm_matches_cold;
          Alcotest.test_case "warm guard leaves the wrong basin" `Quick
            test_warm_guard_leaves_wrong_basin;
          Alcotest.test_case "max_sweeps below one rejected" `Quick
            test_max_sweeps_rejected;
        ] );
      ( "gravity baseline",
        [
          Alcotest.test_case "exact on rank one" `Quick
            test_gravity_fit_rank_one;
          Alcotest.test_case "worse on IC data" `Quick
            test_gravity_fit_worse_on_ic_data;
        ] );
      ( "variants",
        [
          Alcotest.test_case "stable-f" `Quick test_fit_stable_f;
          Alcotest.test_case "time-varying" `Quick test_fit_time_varying;
          Alcotest.test_case "error ordering" `Quick test_variant_ordering;
          Alcotest.test_case "time-varying is per-bin stable-fP" `Quick
            test_time_varying_is_per_bin_stable_fp;
          Alcotest.test_case "general f recovery" `Quick
            test_fit_general_f_recovery;
        ] );
      ( "optimizer cross-check",
        [
          Alcotest.test_case "pgd agrees with bcd" `Quick
            test_pgd_agrees_with_bcd;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "zero bins" `Quick test_per_bin_error_zero_bins;
        ] );
    ]
