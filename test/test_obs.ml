(* The observability layer: span tracer semantics (nesting, ring
   retention, monotone clocks, JSONL export), the stage primitive and its
   wall clock, the metrics registry and its Prometheus exposition, and the
   load-bearing guarantee that tracing only observes — estimates are
   bit-identical with the tracer on or off. *)

module Trace = Ic_obs.Trace
module Metrics = Ic_obs.Metrics
module Pool = Ic_parallel.Pool
module Pipeline = Ic_estimation.Pipeline
module Engine = Ic_runtime.Engine
module Telemetry = Ic_runtime.Telemetry
module Feed = Ic_runtime.Feed
module Tm = Ic_traffic.Tm

(* A hand-cranked clock (seconds): tests control time explicitly. *)
let manual_clock () =
  let t = ref 0. in
  ((fun () -> !t), fun dt -> t := !t +. dt)

(* --- tracer -------------------------------------------------------------- *)

let test_noop_tracer () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.noop);
  Alcotest.(check (float 0.)) "now_ns is 0" 0. (Trace.now_ns Trace.noop);
  let r = Trace.with_span Trace.noop "x" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  (match Trace.with_span Trace.noop "x" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "reraised" "boom" m);
  Alcotest.(check int) "nothing recorded" 0 (Trace.recorded Trace.noop);
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans Trace.noop));
  Alcotest.(check string) "empty jsonl" "" (Trace.to_jsonl Trace.noop)

let test_span_nesting () =
  let clock, advance = manual_clock () in
  let t = Trace.create ~clock () in
  Alcotest.(check bool) "enabled" true (Trace.enabled t);
  Trace.with_span t "root" ~attrs:[ ("k", "v") ] (fun () ->
      advance 0.001;
      Trace.with_span t "child_a" (fun () -> advance 0.002);
      Trace.with_span t "child_b" (fun () -> advance 0.003));
  (* Spans are recorded on completion: children before their parent. *)
  match Trace.spans t with
  | [ a; b; root ] ->
      Alcotest.(check string) "first child" "child_a" a.Trace.name;
      Alcotest.(check string) "second child" "child_b" b.Trace.name;
      Alcotest.(check string) "root last" "root" root.Trace.name;
      Alcotest.(check int) "a's parent" root.Trace.id a.Trace.parent;
      Alcotest.(check int) "b's parent" root.Trace.id b.Trace.parent;
      Alcotest.(check int) "root is a root" (-1) root.Trace.parent;
      Alcotest.(check int) "root depth" 0 root.Trace.depth;
      Alcotest.(check int) "child depth" 1 a.Trace.depth;
      Alcotest.(check (float 0.)) "root start" 0. root.Trace.start_ns;
      Alcotest.(check (float 0.)) "a start" 1e6 a.Trace.start_ns;
      Alcotest.(check (float 0.)) "a duration" 2e6 a.Trace.dur_ns;
      Alcotest.(check (float 0.)) "b duration" 3e6 b.Trace.dur_ns;
      Alcotest.(check (float 0.)) "root spans children" 6e6 root.Trace.dur_ns;
      Alcotest.(check (list (pair string string)))
        "attrs kept" [ ("k", "v") ] root.Trace.attrs
  | ss -> Alcotest.failf "expected 3 spans, got %d" (List.length ss)

let test_span_recorded_on_raise () =
  let clock, advance = manual_clock () in
  let t = Trace.create ~clock () in
  (match
     Trace.with_span t "outer" (fun () ->
         Trace.with_span t "dies" (fun () ->
             advance 0.004;
             failwith "mid-span"))
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  match Trace.spans t with
  | [ dies; outer ] ->
      Alcotest.(check string) "failing span recorded" "dies" dies.Trace.name;
      Alcotest.(check (float 0.)) "duration up to raise" 4e6 dies.Trace.dur_ns;
      Alcotest.(check string) "outer also recorded" "outer" outer.Trace.name
  | ss -> Alcotest.failf "expected 2 spans, got %d" (List.length ss)

let test_ring_eviction () =
  let clock, _ = manual_clock () in
  let t = Trace.create ~capacity:3 ~clock () in
  for i = 0 to 7 do
    Trace.with_span t (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "recorded counts evictions" 8 (Trace.recorded t);
  Alcotest.(check int) "dropped" 5 (Trace.dropped t);
  Alcotest.(check (list string))
    "last 3 survive, oldest first" [ "s5"; "s6"; "s7" ]
    (List.map (fun s -> s.Trace.name) (Trace.spans t));
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Trace.create: capacity must be >= 1") (fun () ->
      ignore (Trace.create ~capacity:0 ~clock ()))

let test_clock_clamped_monotone () =
  (* A clock that steps backwards (NTP) must never yield negative
     durations or decreasing timestamps. *)
  let steps = ref [ 0.; 5.; 2.; 1.; 7. ] in
  let clock () =
    match !steps with
    | [ last ] -> last
    | v :: rest ->
        steps := rest;
        v
    | [] -> assert false
  in
  let t = Trace.create ~clock () in
  Trace.with_span t "a" (fun () -> ()) |> ignore;
  Trace.with_span t "b" (fun () -> ()) |> ignore;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Trace.name ^ " non-negative duration")
        true
        (s.Trace.dur_ns >= 0.))
    (Trace.spans t);
  let starts = List.map (fun s -> s.Trace.start_ns) (Trace.spans t) in
  Alcotest.(check bool) "starts non-decreasing" true
    (List.sort compare starts = starts)

let test_stage () =
  (* One call feeds both the span and the histogram, from one clock here. *)
  let clock, advance = manual_clock () in
  let t = Trace.create ~clock () in
  let h = Metrics.histogram (Metrics.create ()) ~buckets:[| 1e6; 1e7 |] "s" in
  let r =
    Trace.stage t "work" ~attrs:[ ("k", "v") ] ~clock h (fun () ->
        advance 0.003;
        7)
  in
  Alcotest.(check int) "value passes through" 7 r;
  (match
     Trace.stage t "dies" ~clock h (fun () ->
         advance 0.001;
         failwith "mid-stage")
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  let snap = Metrics.histogram_snapshot h in
  Alcotest.(check int) "a raising stage is not observed" 1 snap.Metrics.h_count;
  Alcotest.(check (float 0.)) "duration in ns" 3e6 snap.Metrics.h_sum;
  match Trace.spans t with
  | [ work; dies ] ->
      Alcotest.(check string) "span named" "work" work.Trace.name;
      Alcotest.(check (float 0.)) "span duration" 3e6 work.Trace.dur_ns;
      Alcotest.(check (list (pair string string)))
        "attrs kept" [ ("k", "v") ] work.Trace.attrs;
      Alcotest.(check string) "raising span recorded" "dies" dies.Trace.name
  | ss -> Alcotest.failf "expected 2 spans, got %d" (List.length ss)

(* The engine's stage call on a default telemetry sink: the histogram must
   read wall time, not process CPU time. *)
let default_sink_stage_ns f =
  let tel = Telemetry.create () in
  Trace.stage Trace.noop "engine.test" ~clock:(Telemetry.clock tel)
    (Telemetry.stage tel "test") f;
  (Metrics.histogram_snapshot (Telemetry.stage tel "test")).Metrics.h_sum

let test_stage_counts_sleep () =
  let ns = default_sink_stage_ns (fun () -> Unix.sleepf 0.02) in
  Alcotest.(check bool)
    (Printf.sprintf "a 20 ms sleep recorded as %.1f ms" (ns /. 1e6))
    true (ns >= 20e6)

let test_stage_ignores_other_domains () =
  let started = Atomic.make false and stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  let ns =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join spinner)
      (fun () ->
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        default_sink_stage_ns (fun () ->
            let until = Unix.gettimeofday () +. 0.02 in
            while Unix.gettimeofday () < until do
              ()
            done))
  in
  Alcotest.(check bool)
    (Printf.sprintf "a 20 ms busy wait beside a spinning domain recorded as \
                     %.1f ms" (ns /. 1e6))
    true (ns < 30e6)

let test_jsonl_format_and_escaping () =
  let clock, advance = manual_clock () in
  let t = Trace.create ~clock () in
  Trace.with_span t "plain" (fun () -> advance 0.000001);
  Trace.with_span t "quote\"back\\slash"
    ~attrs:[ ("key\n", "tab\there"); ("ctl", "\x01") ]
    (fun () -> ());
  let lines = String.split_on_char '\n' (String.trim (Trace.to_jsonl t)) in
  (match (lines, Trace.spans t) with
  | [ l1; l2 ], [ s1; s2 ] ->
      Alcotest.(check string) "plain span line"
        (Printf.sprintf
           "{\"name\":\"plain\",\"id\":%d,\"parent\":-1,\"depth\":0,\"start_ns\":0,\"dur_ns\":1000}"
           s1.Trace.id)
        l1;
      Alcotest.(check string) "escaped span line"
        (Printf.sprintf
           "{\"name\":\"quote\\\"back\\\\slash\",\"id\":%d,\"parent\":-1,\"depth\":0,\"start_ns\":1000,\"dur_ns\":0,\"attrs\":{\"key\\n\":\"tab\\there\",\"ctl\":\"\\u0001\"}}"
           s2.Trace.id)
        l2
  | _ -> Alcotest.fail "expected exactly 2 jsonl lines / spans");
  let path = Filename.temp_file "ic_obs" ".jsonl" in
  let n = Trace.export_jsonl ~path t in
  Alcotest.(check int) "export count" 2 n;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file matches to_jsonl" (Trace.to_jsonl t) text

(* --- metrics registry ---------------------------------------------------- *)

let test_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"h" "reqs" in
  Alcotest.(check bool) "find-or-create returns same" true
    (c == Metrics.counter m "reqs");
  Metrics.inc c;
  Metrics.add c 9;
  Alcotest.(check int) "value" 10 (Metrics.counter_value c);
  Alcotest.check_raises "monotone"
    (Invalid_argument "Metrics.add: counters are monotone") (fun () ->
      Metrics.add c (-1));
  Alcotest.(check bool) "find_counter does not create" true
    (Metrics.find_counter m "absent" = None);
  Alcotest.(check bool) "still absent" true
    (Metrics.find_counter m "absent" = None);
  ignore (Metrics.counter m "alpha");
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("alpha", 0); ("reqs", 10) ]
    (Metrics.counters m);
  Metrics.remove_counter m "alpha";
  Alcotest.(check (list (pair string int)))
    "removed" [ ("reqs", 10) ] (Metrics.counters m);
  Metrics.set_counter c 3;
  Alcotest.(check int) "set (restore path)" 3 (Metrics.counter_value c)

let test_gauges () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "depth" in
  Alcotest.(check (float 0.)) "initial" 0. (Metrics.gauge_value g);
  Metrics.set g 2.5;
  Metrics.set g (-7.);
  Alcotest.(check (float 0.)) "last write wins" (-7.) (Metrics.gauge_value g);
  ignore (Metrics.gauge m "apex");
  Alcotest.(check (list (pair string (float 0.))))
    "sorted"
    [ ("apex", 0.); ("depth", -7.) ]
    (Metrics.gauges m)

let test_histograms () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.; 10.; 100. |] "lat" in
  (* A value equal to a bound lands in that bound's bucket (le semantics). *)
  List.iter (Metrics.observe h) [ 1.; 1.5; 10.; 99.; 100.; 1000. ];
  let s = Metrics.histogram_snapshot h in
  Alcotest.(check (list (pair (float 0.) int)))
    "cumulative buckets"
    [ (1., 1); (10., 3); (100., 5) ]
    s.Metrics.h_buckets;
  Alcotest.(check int) "count includes +Inf" 6 s.Metrics.h_count;
  Alcotest.(check (float 0.)) "sum" 1211.5 s.Metrics.h_sum;
  Alcotest.(check int) "default bucket ladder"
    63
    (Array.length Metrics.default_duration_buckets);
  Alcotest.check_raises "empty buckets"
    (Invalid_argument "Metrics.histogram: empty buckets") (fun () ->
      ignore (Metrics.histogram m ~buckets:[||] "bad1"));
  Alcotest.check_raises "non-increasing buckets"
    (Invalid_argument "Metrics.histogram: buckets must be strictly increasing")
    (fun () -> ignore (Metrics.histogram m ~buckets:[| 1.; 1. |] "bad2"))

let test_sanitize_name () =
  List.iter
    (fun (raw, clean) ->
      Alcotest.(check string) raw clean (Metrics.sanitize_name raw))
    [
      ("ok_name:x9", "ok_name:x9");
      ("9leading", "_leading");
      ("a b-c", "a_b_c");
      ("", "_");
      ("ipf.iterations", "ipf_iterations");
    ]

let test_expose () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"total bins" "bins" in
  Metrics.add c 7;
  Metrics.set (Metrics.gauge m "f value") 0.25;
  let h = Metrics.histogram m ~buckets:[| 1.; 2.; 4.; 8. |] "step" in
  List.iter (Metrics.observe h) [ 3.; 3.5; 100. ];
  Alcotest.(check string) "exposition text"
    (String.concat "\n"
       [
         "# HELP bins total bins";
         "# TYPE bins counter";
         "bins 7";
         "# TYPE f_value gauge";
         "f_value 0.25";
         "# TYPE step histogram";
         (* empty le=1 and le=2 buckets and the no-growth le=8 bucket are
            elided; cumulative counts keep the subset legal Prometheus *)
         "step_bucket{le=\"4\"} 2";
         "step_bucket{le=\"+Inf\"} 3";
         "step_sum 106.5";
         "step_count 3";
         "";
       ])
    (Metrics.expose m)

let test_expose_special_floats () =
  let m = Metrics.create () in
  Metrics.set (Metrics.gauge m "nan_g") Float.nan;
  Metrics.set (Metrics.gauge m "pinf_g") Float.infinity;
  Metrics.set (Metrics.gauge m "ninf_g") Float.neg_infinity;
  let text = Metrics.expose m in
  let has s =
    Alcotest.(check bool) s true
      (String.length text >= String.length s
      && String.split_on_char '\n' text |> List.exists (( = ) s))
  in
  has "nan_g NaN";
  has "pinf_g +Inf";
  has "ninf_g -Inf"

(* --- pool instrumentation ------------------------------------------------ *)

let test_pool_stats () =
  let clock, advance = manual_clock () in
  let tracer = Trace.create ~clock () in
  Pool.with_pool ~jobs:2 ~tracer (fun pool ->
      let out =
        Pool.map pool ~chunk:1 ~n:6 (fun ~slot:_ i ->
            advance 0.0001;
            i * 3)
      in
      Alcotest.(check (array int)) "values" [| 0; 3; 6; 9; 12; 15 |] out;
      let stats = Pool.stats pool in
      Alcotest.(check int) "one stats row per slot" 2 (Array.length stats);
      let total =
        Array.fold_left (fun acc s -> acc + s.Pool.chunks) 0 stats
      in
      Alcotest.(check int) "every chunk accounted to a slot" 6 total;
      Array.iter
        (fun s ->
          Alcotest.(check bool) "run_ns non-negative" true (s.Pool.run_ns >= 0.);
          Alcotest.(check bool) "wait_ns non-negative" true
            (s.Pool.wait_ns >= 0.))
        stats;
      Alcotest.(check bool) "region span recorded" true
        (List.exists
           (fun s -> s.Trace.name = "pool.region")
           (Trace.spans tracer)));
  (* Untraced pools keep the stats surface but record nothing. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Pool.map pool ~n:4 (fun ~slot:_ i -> i));
      Array.iter
        (fun s -> Alcotest.(check int) "untraced: no chunk stats" 0 s.Pool.chunks)
        (Pool.stats pool))

(* --- tracing only observes: bit-identity with the tracer on -------------- *)

let graph = Ic_topology.Topologies.abilene_like ()
let routing = Ic_topology.Routing.build graph

let synth ~bins ~seed =
  let spec =
    {
      Ic_core.Synth.default_spec with
      nodes = Ic_topology.Graph.node_count graph;
      binning = Ic_timeseries.Timebin.five_min;
      bins;
      mean_total_bytes = 1e9;
    }
  in
  (Ic_core.Synth.generate spec (Ic_prng.Rng.create seed)).Ic_core.Synth.series

let tm_bits tm = Array.map Int64.bits_of_float (Tm.to_vector tm)

let test_traced_off_bit_identical () =
  (* The qcheck pin behind the "tracing only observes" guarantee: random
     stream lengths and seeds, estimates bit-compared with tracing on/off,
     through both the batch pipeline and the streaming engine. *)
  let gen = QCheck2.Gen.(pair (int_range 1 16) (int_range 0 1000)) in
  let prop (bins, seed) =
    let truth = synth ~bins ~seed in
    let prior = Ic_gravity.Gravity.of_series truth in
    let config = Pipeline.default_config routing in
    let off = Pipeline.run config ~truth ~prior in
    let tracer = Trace.create () in
    let on = Pipeline.run ~tracer config ~truth ~prior in
    let pipeline_same =
      Array.for_all
        (fun k ->
          tm_bits (Ic_traffic.Series.tm off.Pipeline.estimate k)
          = tm_bits (Ic_traffic.Series.tm on.Pipeline.estimate k))
        (Array.init bins Fun.id)
    in
    let stream estimates_tracer =
      let config =
        {
          (Engine.default_config routing Ic_timeseries.Timebin.five_min) with
          Engine.refit_every = 6;
          window = 12;
          stale_after = 18;
        }
      in
      let engine = Engine.create ?tracer:estimates_tracer config in
      let feed =
        Feed.create ~noise_sigma:0.01 ~drop_rate:0.05 ~corrupt_rate:0.01
          routing (synth ~bins ~seed) ~seed:(seed + 1)
      in
      let out = ref [] in
      let rec loop () =
        match Feed.next feed with
        | None -> ()
        | Some (loads, missing) ->
            out := (Engine.step engine ~loads ~missing).Engine.estimate :: !out;
            loop ()
      in
      loop ();
      List.rev_map tm_bits !out
    in
    let engine_same =
      stream None = stream (Some (Trace.create ()))
    in
    Trace.recorded tracer > 0 && pipeline_same && engine_same
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:10 ~name:"tracing never changes an estimate" gen
       prop)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "noop tracer" `Quick test_noop_tracer;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "recorded on raise" `Quick
            test_span_recorded_on_raise;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "monotone clock clamp" `Quick
            test_clock_clamped_monotone;
          Alcotest.test_case "jsonl format and escaping" `Quick
            test_jsonl_format_and_escaping;
          Alcotest.test_case "stage" `Quick test_stage;
        ] );
      ( "stage clock",
        [
          Alcotest.test_case "counts a sleep" `Quick test_stage_counts_sleep;
          Alcotest.test_case "ignores other domains" `Quick
            test_stage_ignores_other_domains;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "sanitize_name" `Quick test_sanitize_name;
          Alcotest.test_case "expose" `Quick test_expose;
          Alcotest.test_case "expose special floats" `Quick
            test_expose_special_floats;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "pool slot stats" `Quick test_pool_stats;
          Alcotest.test_case "traced-off bit-identity (qcheck)" `Slow
            test_traced_off_bit_identical;
        ] );
    ]
