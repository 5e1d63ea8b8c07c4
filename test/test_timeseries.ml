module Tb = Ic_timeseries.Timebin

let feq = Alcotest.(check (float 1e-9))

let feq_tol tol = Alcotest.(check (float tol))

let test_timebin_counts () =
  Alcotest.(check int) "5min/day" 288 (Tb.bins_per_day Tb.five_min);
  Alcotest.(check int) "5min/week" 2016 (Tb.bins_per_week Tb.five_min);
  Alcotest.(check int) "15min/week" 672 (Tb.bins_per_week Tb.fifteen_min);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Timebin.make: width must divide a week") (fun () ->
      ignore (Tb.make ~width_s:7_000))

let test_timebin_clock () =
  feq "midnight" 0. (Tb.hour_of_day Tb.five_min 0);
  feq "noon" 12. (Tb.hour_of_day Tb.five_min 144);
  feq "next day midnight" 0. (Tb.hour_of_day Tb.five_min 288);
  Alcotest.(check int) "monday" 0 (Tb.day_of_week Tb.five_min 0);
  Alcotest.(check int) "saturday" 5 (Tb.day_of_week Tb.five_min (5 * 288));
  Alcotest.(check bool) "weekend" true (Tb.is_weekend Tb.five_min (6 * 288));
  Alcotest.(check bool) "weekday" false (Tb.is_weekend Tb.five_min 100)

(* Weekend rollover and negative-bin (pre-epoch) arithmetic: streaming
   windows slide across week boundaries, so these must floor, not truncate
   toward zero. *)
let test_timebin_week_boundaries () =
  let five = Tb.five_min and fifteen = Tb.fifteen_min in
  (* last bin of Sunday at 5-min width *)
  Alcotest.(check int) "5min sunday" 6 (Tb.day_of_week five 2015);
  Alcotest.(check bool) "5min weekend" true (Tb.is_weekend five 2015);
  feq "5min last bin hour" (23. +. (55. /. 60.)) (Tb.hour_of_day five 2015);
  (* first bin of the next Monday *)
  Alcotest.(check int) "5min monday again" 0 (Tb.day_of_week five 2016);
  Alcotest.(check bool) "5min weekday" false (Tb.is_weekend five 2016);
  feq "5min midnight" 0. (Tb.hour_of_day five 2016);
  (* same rollover at 15-min width *)
  Alcotest.(check int) "15min sunday" 6 (Tb.day_of_week fifteen 671);
  Alcotest.(check int) "15min monday again" 0 (Tb.day_of_week fifteen 672)

let test_timebin_negative_bins () =
  let five = Tb.five_min in
  Alcotest.(check int) "bin -1 is sunday" 6 (Tb.day_of_week five (-1));
  feq "bin -1 is just before midnight"
    (23. +. (55. /. 60.))
    (Tb.hour_of_day five (-1))

let test_diurnal_mean_one () =
  let d = Ic_timeseries.Diurnal.default in
  let samples = 288 in
  let acc = ref 0. in
  for k = 0 to samples - 1 do
    acc :=
      !acc
      +. Ic_timeseries.Diurnal.factor d
           ~hour:(24. *. float_of_int k /. float_of_int samples)
  done;
  feq_tol 1e-3 "daily mean 1" 1. (!acc /. float_of_int samples)

let test_diurnal_shape () =
  let d = Ic_timeseries.Diurnal.default in
  let peak = Ic_timeseries.Diurnal.factor d ~hour:d.peak_hour in
  let night = Ic_timeseries.Diurnal.factor d ~hour:4. in
  Alcotest.(check bool) "peak above night" true (peak > night);
  Alcotest.(check bool) "strictly positive" true (night > 0.)

let test_weekend_damping () =
  feq "weekday" 1. (Ic_timeseries.Diurnal.weekend_damping 0.6 ~day:2);
  feq "saturday" 0.6 (Ic_timeseries.Diurnal.weekend_damping 0.6 ~day:5);
  feq "sunday" 0.6 (Ic_timeseries.Diurnal.weekend_damping 0.6 ~day:6);
  Alcotest.check_raises "bad damping"
    (Invalid_argument "Diurnal.weekend_damping: damping must lie in (0,1]")
    (fun () -> ignore (Ic_timeseries.Diurnal.weekend_damping 0. ~day:5))

let test_cyclo_positive_and_scaled () =
  let gen = Ic_timeseries.Cyclo.make ~base_level:1e6 () in
  let rng = Ic_prng.Rng.create 9 in
  let xs = Ic_timeseries.Cyclo.generate gen Tb.five_min rng ~bins:2016 in
  Alcotest.(check int) "length" 2016 (Array.length xs);
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0.) xs);
  (* mean over a week should sit near base_level x weekend-adjusted mean *)
  let mean = Array.fold_left ( +. ) 0. xs /. 2016. in
  let weekend_mean = ((5. *. 1.) +. (2. *. 0.6)) /. 7. in
  feq_tol 2e5 "mean near envelope" (1e6 *. weekend_mean) mean

let test_cyclo_envelope_periodic () =
  let gen = Ic_timeseries.Cyclo.make ~base_level:1e6 () in
  let e0 = Ic_timeseries.Cyclo.envelope gen Tb.five_min 10 in
  let e1 = Ic_timeseries.Cyclo.envelope gen Tb.five_min (10 + 288) in
  feq_tol 1e-6 "daily periodic envelope (weekdays)" e0 e1

let test_cyclo_validation () =
  Alcotest.check_raises "bad base"
    (Invalid_argument "Cyclo.make: base_level must be positive") (fun () ->
      ignore (Ic_timeseries.Cyclo.make ~base_level:0. ()));
  Alcotest.check_raises "bad phi"
    (Invalid_argument "Cyclo.make: AR coefficient must lie in [0,1)")
    (fun () -> ignore (Ic_timeseries.Cyclo.make ~noise_phi:1. ~base_level:1. ()))

let test_acf_periodic_signal () =
  let period = 48 in
  let xs =
    Array.init 480 (fun k ->
        10. +. sin (2. *. Float.pi *. float_of_int k /. float_of_int period))
  in
  feq_tol 0.15 "strength near 1 (biased estimator)" 1.
    (Ic_timeseries.Acf.periodicity_strength xs ~period);
  feq_tol 1e-9 "lag 0" 1. (Ic_timeseries.Acf.autocorrelation xs 0)

let test_acf_generated_activity_is_diurnal () =
  let gen = Ic_timeseries.Cyclo.make ~noise_sigma:0.05 ~base_level:1e6 () in
  let rng = Ic_prng.Rng.create 100 in
  let xs = Ic_timeseries.Cyclo.generate gen Tb.five_min rng ~bins:2016 in
  let strength = Ic_timeseries.Acf.periodicity_strength xs ~period:288 in
  Alcotest.(check bool) "daily periodicity > 0.5" true (strength > 0.5)

(* --- Cyclo_fit: measure-then-generate --- *)

let test_cyclo_fit_recovers_generator () =
  let truth =
    Ic_timeseries.Cyclo.make ~weekend:0.55 ~noise_sigma:0.1 ~noise_phi:0.7
      ~base_level:2e6 ()
  in
  let rng = Ic_prng.Rng.create 200 in
  let xs = Ic_timeseries.Cyclo.generate truth Tb.five_min rng ~bins:2016 in
  let fitted = Ic_timeseries.Cyclo_fit.fit Tb.five_min xs in
  feq_tol 0.1 "weekend damping" 0.55 fitted.weekend_damping;
  feq_tol 2e5 "base level" 2e6 fitted.base_level;
  feq_tol 0.15 "residual phi" 0.7 fitted.residual_phi;
  feq_tol 0.04 "residual sigma" 0.1 fitted.residual_sigma

let test_cyclo_fit_generate () =
  let truth = Ic_timeseries.Cyclo.make ~base_level:1e6 () in
  let rng = Ic_prng.Rng.create 201 in
  let xs = Ic_timeseries.Cyclo.generate truth Tb.five_min rng ~bins:2016 in
  let fitted = Ic_timeseries.Cyclo_fit.fit Tb.five_min xs in
  let fresh =
    Ic_timeseries.Cyclo_fit.generate fitted Tb.five_min
      (Ic_prng.Rng.create 202) ~bins:2016
  in
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0.) fresh);
  (* synthetic continuation keeps the daily periodicity *)
  Alcotest.(check bool)
    "diurnal" true
    (Ic_timeseries.Acf.periodicity_strength fresh ~period:288 > 0.4);
  (* similar scale *)
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  feq_tol 0.25 "volume ratio" 1. (mean fresh /. mean xs)

let test_cyclo_fit_validation () =
  Alcotest.check_raises "too short"
    (Invalid_argument "Cyclo_fit.fit: need at least one day of data")
    (fun () -> ignore (Ic_timeseries.Cyclo_fit.fit Tb.five_min [| 1.; 2. |]))

let () =
  Alcotest.run "ic_timeseries"
    [
      ( "timebin",
        [
          Alcotest.test_case "counts" `Quick test_timebin_counts;
          Alcotest.test_case "clock" `Quick test_timebin_clock;
          Alcotest.test_case "week boundaries" `Quick
            test_timebin_week_boundaries;
          Alcotest.test_case "negative bins" `Quick test_timebin_negative_bins;
        ] );
      ( "diurnal",
        [
          Alcotest.test_case "mean one" `Quick test_diurnal_mean_one;
          Alcotest.test_case "shape" `Quick test_diurnal_shape;
          Alcotest.test_case "weekend damping" `Quick test_weekend_damping;
        ] );
      ( "cyclo",
        [
          Alcotest.test_case "positive and scaled" `Quick
            test_cyclo_positive_and_scaled;
          Alcotest.test_case "periodic envelope" `Quick
            test_cyclo_envelope_periodic;
          Alcotest.test_case "validation" `Quick test_cyclo_validation;
        ] );
      ( "acf",
        [
          Alcotest.test_case "periodic signal" `Quick test_acf_periodic_signal;
          Alcotest.test_case "generated activity" `Quick
            test_acf_generated_activity_is_diurnal;
        ] );
      ( "cyclo_fit",
        [
          Alcotest.test_case "recovers generator" `Quick
            test_cyclo_fit_recovers_generator;
          Alcotest.test_case "generates continuation" `Quick
            test_cyclo_fit_generate;
          Alcotest.test_case "validation" `Quick test_cyclo_fit_validation;
        ] );
    ]
