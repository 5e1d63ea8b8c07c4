let utf8_length s =
  (* each sparkline block is 3 bytes *)
  String.length s / 3

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Ic_report.Sparkline.render [||]);
  let s = Ic_report.Sparkline.render [| 0.; 1. |] in
  Alcotest.(check int) "two blocks" 2 (utf8_length s);
  let flat = Ic_report.Sparkline.render [| 5.; 5.; 5. |] in
  Alcotest.(check int) "constant renders" 3 (utf8_length flat)

let test_sparkline_resample () =
  let xs = Array.init 1000 float_of_int in
  let s = Ic_report.Sparkline.render_resampled ~width:40 xs in
  Alcotest.(check int) "downsampled" 40 (utf8_length s);
  let short = Ic_report.Sparkline.render_resampled ~width:40 [| 1.; 2. |] in
  Alcotest.(check int) "short passthrough" 2 (utf8_length short)

let test_series_out () =
  let s = Ic_report.Series_out.make ~label:"test" [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "summary mentions label" true
    (String.length (Ic_report.Series_out.summary s) > 4);
  let path = Filename.temp_file "ic_series" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ic_report.Series_out.to_csv ~path [ s ];
      let header, rows = Ic_traffic.Csv_io.read_table ~path in
      Alcotest.(check (list string)) "header" [ "x"; "test" ] header;
      Alcotest.(check int) "rows" 3 (List.length rows))

let test_series_out_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Series_out.make_xy: length mismatch") (fun () ->
      ignore (Ic_report.Series_out.make_xy ~label:"x" ~xs:[| 1. |] ~ys:[||]))

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else go (i + 1)
  in
  go 0

let test_svg_render () =
  let s1 = Ic_report.Series_out.make ~label:"alpha" [| 1.; 3.; 2.; 5. |] in
  let s2 = Ic_report.Series_out.make ~label:"beta" [| 2.; 2.; 4.; 1. |] in
  let svg =
    Ic_report.Svg_plot.render
      { Ic_report.Svg_plot.default_spec with title = "demo" }
      [ s1; s2 ]
  in
  Alcotest.(check bool) "is svg" true (contains "<svg" svg);
  Alcotest.(check bool) "has two polylines" true
    (contains "polyline" svg);
  Alcotest.(check bool) "has title" true (contains ">demo</text>" svg);
  Alcotest.(check bool) "has legend labels" true
    (contains ">alpha</text>" svg && contains ">beta</text>" svg)

let test_svg_log_axes () =
  let xs = [| 0.001; 0.01; 0.1; 1. |] in
  let ys = [| 0.9; 0.5; 0.1; 0.01 |] in
  let s = Ic_report.Series_out.make_xy ~label:"ccdf" ~xs ~ys in
  let svg =
    Ic_report.Svg_plot.render
      {
        Ic_report.Svg_plot.default_spec with
        x_axis = Ic_report.Svg_plot.Log;
        y_axis = Ic_report.Svg_plot.Log;
      }
      [ s ]
  in
  Alcotest.(check bool) "log tick labels" true (contains "1e-" svg)

let test_svg_drops_nonpositive_on_log () =
  let s = Ic_report.Series_out.make ~label:"z" [| 0.; 0.; 0. |] in
  (* values are all non-positive in log-y: nothing to draw *)
  Alcotest.check_raises "nothing to draw"
    (Invalid_argument "Svg_plot.render: nothing to draw") (fun () ->
      ignore
        (Ic_report.Svg_plot.render
           {
             Ic_report.Svg_plot.default_spec with
             y_axis = Ic_report.Svg_plot.Log;
           }
           [ s ]))

let test_svg_write () =
  let path = Filename.temp_file "ic_plot" ".svg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ic_report.Svg_plot.write ~path Ic_report.Svg_plot.default_spec
        [ Ic_report.Series_out.make ~label:"x" [| 1.; 2. |] ];
      Alcotest.(check bool) "file exists" true (Sys.file_exists path))

let () =
  Alcotest.run "ic_report"
    [
      ( "sparkline",
        [
          Alcotest.test_case "render" `Quick test_sparkline;
          Alcotest.test_case "resample" `Quick test_sparkline_resample;
        ] );
      ( "series_out",
        [
          Alcotest.test_case "csv" `Quick test_series_out;
          Alcotest.test_case "mismatch" `Quick test_series_out_mismatch;
        ] );
      ( "svg",
        [
          Alcotest.test_case "render" `Quick test_svg_render;
          Alcotest.test_case "log axes" `Quick test_svg_log_axes;
          Alcotest.test_case "log drops nonpositive" `Quick
            test_svg_drops_nonpositive_on_log;
          Alcotest.test_case "write" `Quick test_svg_write;
        ] );
    ]
