module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series

let feq = Alcotest.(check (float 1e-9))

let feq_tol tol = Alcotest.(check (float tol))

let sample_tm () =
  Tm.init 3 (fun i j -> float_of_int ((i * 3) + j + 1))
(* 1 2 3 / 4 5 6 / 7 8 9 *)

let test_tm_basics () =
  let tm = sample_tm () in
  feq "get" 6. (Tm.get tm 1 2);
  feq "total" 45. (Tm.total tm);
  Tm.set tm 0 0 10.;
  feq "set" 10. (Tm.get tm 0 0);
  Tm.add_to tm 0 0 5.;
  feq "add_to" 15. (Tm.get tm 0 0);
  Alcotest.check_raises "negative" (Invalid_argument "Tm.set: negative traffic volume")
    (fun () -> Tm.set tm 0 0 (-1.));
  Alcotest.check_raises "range"
    (Invalid_argument "Tm.get: (3,0) out of range for n=3") (fun () ->
      ignore (Tm.get tm 3 0))

let test_tm_vector_roundtrip () =
  let tm = sample_tm () in
  let v = Tm.to_vector tm in
  feq "vector layout" 6. v.(5);
  let tm' = Tm.of_vector_clamped 3 v in
  Alcotest.(check bool) "roundtrip" true (Tm.approx_equal tm tm');
  let clamped = Tm.of_vector_clamped 2 [| -1.; 2.; 3.; 4. |] in
  feq "clamped" 0. (Tm.get clamped 0 0);
  feq "clamped passthrough" 4. (Tm.get clamped 1 1)

let test_tm_ops () =
  let tm = sample_tm () in
  let doubled = Tm.scale 2. tm in
  feq "scale" 90. (Tm.total doubled)

let test_marginals () =
  let tm = sample_tm () in
  let ing = Ic_traffic.Marginals.ingress tm in
  let egr = Ic_traffic.Marginals.egress tm in
  feq "ingress row 0" 6. ing.(0);
  feq "ingress row 2" 24. ing.(2);
  feq "egress col 0" 12. egr.(0);
  feq "egress col 2" 18. egr.(2);
  let shares = Ic_traffic.Marginals.egress_shares tm in
  feq "share" (12. /. 45.) shares.(0);
  feq "shares sum" 1. (Ic_linalg.Vec.sum shares)

let make_series bins =
  let binning = Ic_timeseries.Timebin.five_min in
  Series.make binning
    (Array.init bins (fun k ->
         Tm.init 3 (fun i j -> float_of_int (k + 1) *. float_of_int ((i * 3) + j + 1))))

let test_series () =
  let s = make_series 10 in
  Alcotest.(check int) "length" 10 (Series.length s);
  Alcotest.(check int) "size" 3 (Series.size s);
  let sub = Series.sub s ~pos:2 ~len:3 in
  Alcotest.(check int) "sub length" 3 (Series.length sub);
  feq "sub content" (3. *. 5.) (Tm.get (Series.tm sub 0) 1 1);
  let od = Series.od_series s 1 2 in
  feq "od series" 18. od.(2);
  let tot = Series.total_series s in
  feq "total series" 90. tot.(1)

let test_error_metrics () =
  let truth = sample_tm () in
  feq "identical" 0. (Ic_traffic.Error.rel_l2_temporal truth truth);
  let est = Tm.scale 2. truth in
  feq_tol 1e-9 "doubled" 1. (Ic_traffic.Error.rel_l2_temporal truth est);
  feq "improvement" 50.
    (Ic_traffic.Error.improvement_pct ~baseline:0.4 ~candidate:0.2);
  Alcotest.check_raises "zero truth"
    (Invalid_argument "Error.rel_l2_temporal: all-zero truth") (fun () ->
      ignore (Ic_traffic.Error.rel_l2_temporal (Tm.create 3) truth))

let test_error_series () =
  let s = make_series 4 in
  let errs = Ic_traffic.Error.rel_l2_series s s in
  Alcotest.(check bool) "all zero" true (Array.for_all (fun e -> e = 0.) errs)

let with_tmp f =
  let path = Filename.temp_file "ic_test" ".csv" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_csv_series_roundtrip () =
  with_tmp (fun path ->
      let s = make_series 5 in
      Ic_traffic.Csv_io.write_series ~path s;
      let s' =
        Ic_traffic.Csv_io.read_series ~path
          ~binning:Ic_timeseries.Timebin.five_min ~n:3
      in
      Alcotest.(check int) "length" 5 (Series.length s');
      let ok = ref true in
      for k = 0 to 4 do
        if not (Tm.approx_equal ~tol:1e-6 (Series.tm s k) (Series.tm s' k))
        then ok := false
      done;
      Alcotest.(check bool) "content" true !ok)

let () =
  Alcotest.run "ic_traffic"
    [
      ( "tm",
        [
          Alcotest.test_case "basics" `Quick test_tm_basics;
          Alcotest.test_case "vector roundtrip" `Quick test_tm_vector_roundtrip;
          Alcotest.test_case "ops" `Quick test_tm_ops;
        ] );
      ("marginals", [ Alcotest.test_case "sums" `Quick test_marginals ]);
      ( "series",
        [
          Alcotest.test_case "accessors" `Quick test_series;
        ] );
      ( "error",
        [
          Alcotest.test_case "metrics" `Quick test_error_metrics;
          Alcotest.test_case "series" `Quick test_error_series;
        ] );
      ( "csv",
        [
          Alcotest.test_case "series roundtrip" `Quick
            test_csv_series_roundtrip;
        ] );
    ]
