(* Bechamel benchmarks: one kernel per reproduced figure, the ablation
   comparisons called out in DESIGN.md, and substrate micro-benchmarks.

   All inputs are precomputed so the staged closures measure only the kernel
   under study. Run with: dune exec bench/main.exe

   Every benchmark runs one discarded warmup measurement (JIT-free OCaml
   still wants hot caches, primed branch predictors, and a grown minor heap)
   followed by [--repeat N] (default 3) recorded measurements, reporting the
   per-test MINIMUM — the noise-robust estimator for deterministic kernels.
   Before this, a single 0.4 s OLS pass could rank traced-on above
   traced-off on an idle machine; min-of-N makes such inversions
   reproducible noise rather than reportable results.

   Pass [--json <path>] to also write the results as a machine-readable
   BENCH_<label>.json (test name -> ns/run) so the performance trajectory can
   be tracked across PRs; see "Performance architecture" in DESIGN.md and
   scripts/bench_diff.sh for comparing two such files. *)

open Bechamel
module Instance = Toolkit.Instance

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let geant_graph = Ic_topology.Topologies.geant_like ()

let routing = Ic_topology.Routing.build geant_graph

let binning = Ic_timeseries.Timebin.five_min

(* A small clean IC world for fitting kernels: 64 bins, 22 nodes. *)
let fit_series =
  let n = 22 and bins = 64 in
  let rng = Ic_prng.Rng.create 42 in
  let preference =
    Ic_linalg.Vec.normalize_sum
      (Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:(-4.3) ~sigma:1.7))
  in
  let base = Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:16. ~sigma:1.3) in
  let phase = Array.init n (fun _ -> Ic_prng.Rng.float_range rng 0. 6.28) in
  let activity =
    Array.init bins (fun t ->
        Array.init n (fun i ->
            base.(i) *. (1.3 +. sin ((float_of_int t /. 9.) +. phase.(i)))))
  in
  let params : Ic_core.Params.stable_fp = { f = 0.22; preference; activity } in
  let series = Ic_core.Model.stable_fp params binning in
  let rng = Ic_prng.Rng.create 43 in
  Ic_traffic.Series.map
    (fun tm ->
      Ic_traffic.Tm.init (Ic_traffic.Tm.size tm) (fun i j ->
          Ic_traffic.Tm.get tm i j
          *. exp (Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.1)))
    series

let one_bin = Ic_traffic.Series.tm fit_series 30

let one_bin_vec = Ic_traffic.Tm.to_vector one_bin

let link_loads = Ic_topology.Routing.link_loads routing one_bin_vec

let gravity_prior = Ic_gravity.Gravity.of_tm one_bin

let ingress = Ic_traffic.Marginals.ingress one_bin

let egress = Ic_traffic.Marginals.egress one_bin

let fitted = Ic_core.Fit.fit_stable_fp fit_series

(* Trace fixture for the fig4 kernel: a modest 20-minute capture. *)
let trace =
  let ab =
    Ic_datasets.Abilene.generate ~seed:7 ~duration_s:1200.
      ~connections_per_bin:120. ()
  in
  ab.trace_clev

(* NNLS fixture with active constraints. *)
let nnls_g, nnls_c =
  let n = 22 in
  let rng = Ic_prng.Rng.create 5 in
  let a =
    Ic_linalg.Mat.init (2 * n) n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.)
  in
  let b = Array.init (2 * n) (fun _ -> Ic_prng.Rng.float_range rng (-1.) 2.) in
  (Ic_linalg.Mat.gram a, Ic_linalg.Mat.mulv_t a b)

let spd_122 =
  let rng = Ic_prng.Rng.create 6 in
  let m = 122 in
  let b = Ic_linalg.Mat.init m m (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  Ic_linalg.Mat.add (Ic_linalg.Mat.gram b)
    (Ic_linalg.Mat.scale (float_of_int m) (Ic_linalg.Mat.identity m))

let preference_sample = fitted.params.preference

(* Whole-series fixtures for the batched estimation entry points. *)
let series_link_loads =
  Array.init
    (Ic_traffic.Series.length fit_series)
    (fun k ->
      Ic_topology.Routing.link_loads routing
        (Ic_traffic.Tm.to_vector (Ic_traffic.Series.tm fit_series k)))

let series_priors =
  Array.init
    (Ic_traffic.Series.length fit_series)
    (fun k -> Ic_gravity.Gravity.of_tm (Ic_traffic.Series.tm fit_series k))

(* ------------------------------------------------------------------ *)
(* Benchmarks                                                          *)
(* ------------------------------------------------------------------ *)

let figure_tests =
  [
    Test.make ~name:"fig3/fit-stable-fp-64bins"
      (Staged.stage (fun () -> Ic_core.Fit.fit_stable_fp fit_series));
    Test.make ~name:"fig3/gravity-fit-64bins"
      (Staged.stage (fun () -> Ic_core.Fit.gravity_fit fit_series));
    Test.make ~name:"fig4/trace-f-measurement"
      (Staged.stage (fun () -> Ic_netflow.Trace.measure_f trace ~bin_s:300.));
    Test.make ~name:"fig5/weekly-fit-stable-f"
      (Staged.stage (fun () -> Ic_core.Fit.fit_stable_f fit_series));
    Test.make ~name:"fig7/tail-model-comparison"
      (Staged.stage (fun () ->
           Ic_stats.Fit_dist.compare_tail_models preference_sample));
    Test.make ~name:"fig9/acf-daily-period"
      (Staged.stage (fun () ->
           (* one node's fitted activity series, as Fig9 reads it *)
           let activity = fitted.params.activity in
           let series =
             Array.init (Array.length activity) (fun t -> activity.(t).(0))
           in
           Ic_timeseries.Acf.periodicity_strength series ~period:16));
    Test.make ~name:"fig11/tomogravity-one-bin"
      (Staged.stage (fun () ->
           Ic_estimation.Tomogravity.estimate routing ~link_loads
             ~prior:gravity_prior));
    Test.make ~name:"fig12/estimate-activities"
      (Staged.stage (fun () ->
           Ic_core.Estimate_a.activities ~f:fitted.params.f
             ~preference:fitted.params.preference ~ingress ~egress));
    Test.make ~name:"fig13/closed-form-estimate"
      (Staged.stage (fun () ->
           Ic_core.Closed_form.estimate ~f:0.22 ~ingress ~egress));
  ]

let ablation_tests =
  [
    Test.make ~name:"ablation/tomogravity-cholesky"
      (Staged.stage (fun () ->
           Ic_estimation.Tomogravity.estimate
             ~solver:Ic_estimation.Tomogravity.Cholesky routing ~link_loads
             ~prior:gravity_prior));
    Test.make ~name:"ablation/tomogravity-cg"
      (Staged.stage (fun () ->
           Ic_estimation.Tomogravity.estimate
             ~solver:Ic_estimation.Tomogravity.Cg routing ~link_loads
             ~prior:gravity_prior));
    Test.make ~name:"ablation/ipf-one-bin"
      (Staged.stage (fun () ->
           Ic_estimation.Ipf.fit gravity_prior ~row_targets:ingress
             ~col_targets:egress));
    Test.make ~name:"ablation/nnls-active-set"
      (Staged.stage (fun () -> Ic_linalg.Nnls.solve_gram nnls_g nnls_c));
    Test.make ~name:"ablation/ls-then-clamp"
      (Staged.stage (fun () ->
           let ch =
             Ic_linalg.Chol.factorize_ridge ~ridge:Ic_linalg.Chol.default_ridge
               nnls_g
           in
           Ic_linalg.Vec.clamp_nonneg (Ic_linalg.Chol.solve ch nnls_c)));
    Test.make ~name:"ablation/general-f-fit"
      (Staged.stage (fun () ->
           Ic_core.Fit.fit_general_f fitted.params fit_series));
  ]

(* Batched vs bin-at-a-time estimation: same inputs, same results, the
   batch path builds one tomogravity plan and reuses its structure and
   scratch buffers across bins. *)
let batch_tests =
  [
    Test.make ~name:"batch/tomogravity-series-64bins"
      (Staged.stage (fun () ->
           let plan = Ic_estimation.Tomogravity.make_plan routing in
           Array.map2
             (fun y p ->
               Ic_estimation.Tomogravity.estimate_with_plan plan
                 ~link_loads:y ~prior:p)
             series_link_loads series_priors));
    Test.make ~name:"batch/tomogravity-64-independent"
      (Staged.stage (fun () ->
           Array.map2
             (fun y p ->
               Ic_estimation.Tomogravity.estimate routing ~link_loads:y
                 ~prior:p)
             series_link_loads series_priors));
  ]

(* Streaming engine: per-bin serving cost (prior + tomogravity + IPF over a
   reused plan, refits disabled so the sliding-window refit is measured
   separately below), the cost of one warm 64-bin refit, and one warm
   refit at the engine's production size. *)
let stream_observations =
  let feed =
    Ic_runtime.Feed.create ~noise_sigma:0.01 ~drop_rate:0.02 routing fit_series
      ~seed:11
  in
  Array.init
    (Ic_traffic.Series.length fit_series)
    (fun _ -> Option.get (Ic_runtime.Feed.next feed))

let stream_config =
  {
    (Ic_runtime.Engine.default_config routing binning) with
    Ic_runtime.Engine.refit_every = 1 lsl 30;
    window = Array.length stream_observations;
    initial_params = Some (fitted.params.f, Array.copy fitted.params.preference);
  }

let engine_per_bin =
  Test.make ~name:"stream/engine-per-bin"
    (Staged.stage
       (let engine = Ic_runtime.Engine.create stream_config in
        let k = ref 0 in
        fun () ->
          let loads, missing = stream_observations.(!k) in
          ignore (Ic_runtime.Engine.step engine ~loads ~missing);
          k := (!k + 1) mod Array.length stream_observations))

(* The second day of the Geant week, refit warm as the engine refits it:
   from the cold fit of the first day, with the engine's 6 sweeps and that
   fit's mean error as the incumbent (the guard stays quiet). Built on
   first use, so other groups do not pay for the week. *)
let refit_day =
  lazy
    (let week = (Ic_datasets.Geant.generate ~weeks:1 ()).series in
     let day = 288 in
     let options = { Ic_core.Fit.default_options with max_sweeps = 6 } in
     let cold =
       Ic_core.Fit.fit_stable_fp ~options
         (Ic_traffic.Series.sub week ~pos:0 ~len:day)
     in
     ( { options with f_init = cold.params.f },
       cold.mean_error,
       Ic_traffic.Series.sub week ~pos:day ~len:day ))

let stream_tests =
  [
    engine_per_bin;
    Test.make ~name:"stream/refit-window"
      (Staged.stage
         (let engine = Ic_runtime.Engine.create stream_config in
          Array.iter
            (fun (loads, missing) ->
              ignore (Ic_runtime.Engine.step engine ~loads ~missing))
            stream_observations;
          fun () -> ignore (Ic_runtime.Engine.refit engine)));
    Test.make ~name:"stream/refit-day-288"
      (Staged.stage (fun () ->
           let options, incumbent, series = Lazy.force refit_day in
           ignore (Ic_core.Fit.fit_stable_fp ~options ~incumbent series)));
  ]

(* Parallel execution layer. The work is FIXED across [--jobs] settings —
   a 256-bin tomogravity series sharded over the pool by [Pipeline.run_par]
   (IPF off, so the per-bin work is the least-squares refinement), and one
   multiplexing round over an 8-engine fleet — so ns/run at --jobs 1 vs
   --jobs 4 measures speedup directly. (On a single-CPU host the pool
   cannot beat sequential; the numbers then measure the coordination
   overhead instead.) *)
let parallel_tests ~pool =
  let bins = 256 in
  let src = Ic_traffic.Series.length fit_series in
  let cycle f =
    Ic_traffic.Series.make binning (Array.init bins (fun k -> f (k mod src)))
  in
  let par_truth = cycle (Ic_traffic.Series.tm fit_series) in
  let par_prior = cycle (fun k -> series_priors.(k)) in
  let par_config =
    {
      (Ic_estimation.Pipeline.default_config routing) with
      Ic_estimation.Pipeline.apply_ipf = false;
    }
  in
  let fleet = 8 in
  let engines =
    Array.init fleet (fun _ -> Ic_runtime.Engine.create stream_config)
  in
  let cursors = Array.make fleet 0 in
  [
    Test.make ~name:"parallel/tomogravity-series-256"
      (Staged.stage (fun () ->
           Ic_estimation.Pipeline.run_par ~pool par_config ~truth:par_truth
             ~prior:par_prior));
    Test.make ~name:"parallel/fleet-round-8-engines"
      (Staged.stage (fun () ->
           ignore
             (Ic_parallel.Pool.map pool ~chunk:1 ~n:fleet (fun ~slot:_ i ->
                  let loads, missing = stream_observations.(cursors.(i)) in
                  ignore (Ic_runtime.Engine.step engines.(i) ~loads ~missing);
                  cursors.(i) <-
                    (cursors.(i) + 1) mod Array.length stream_observations))));
  ]

(* Observability overhead. The traced-off engine must price like
   stream/engine-per-bin (tracing is threaded through every hot path now,
   so this guards the "noop tracer costs a branch" claim); traced-on shows
   the full cost of span capture at 7 spans per cached bin. The micro pair
   puts a number on one with_span call itself, and stage-traced-off on one
   engine stage call with tracing off: the noop span plus the stage timer
   (two default-clock reads and a histogram observation) that every bin
   pays four times. The engine resolves its stage histograms once, so the
   bench does too. *)
let noop_span =
  let module Trace = Ic_obs.Trace in
  Test.make ~name:"obs/noop-span"
    (Staged.stage (fun () -> Trace.with_span Trace.noop "bench" Fun.id))

let stage_traced_off =
  let module Trace = Ic_obs.Trace in
  Test.make ~name:"obs/stage-traced-off"
    (Staged.stage
       (let tel = Ic_runtime.Telemetry.create () in
        let hist = Ic_runtime.Telemetry.stage tel "bench" in
        fun () ->
          Trace.stage Trace.noop "bench"
            ~clock:(Ic_runtime.Telemetry.clock tel)
            hist Fun.id))

let obs_tests =
  let module Trace = Ic_obs.Trace in
  let traced_engine tracer =
    let engine = Ic_runtime.Engine.create ?tracer stream_config in
    let k = ref 0 in
    fun () ->
      let loads, missing = stream_observations.(!k) in
      ignore (Ic_runtime.Engine.step engine ~loads ~missing);
      k := (!k + 1) mod Array.length stream_observations
  in
  [
    Test.make ~name:"obs/engine-per-bin-traced-off"
      (Staged.stage (traced_engine None));
    Test.make ~name:"obs/engine-per-bin-traced-on"
      (Staged.stage (traced_engine (Some (Trace.create ~capacity:4096 ()))));
    noop_span;
    stage_traced_off;
    Test.make ~name:"obs/enabled-span"
      (Staged.stage
         (let tracer = Trace.create ~capacity:1024 () in
          fun () -> Trace.with_span tracer "bench" Fun.id));
  ]

let extension_tests =
  [
    Test.make ~name:"extension/maxent-one-bin"
      (Staged.stage (fun () ->
           Ic_estimation.Entropy.estimate routing ~link_loads
             ~prior:gravity_prior));
    Test.make ~name:"extension/fanout-prior"
      (Staged.stage (fun () ->
           Ic_estimation.Prior.fanout ~calibration:fit_series fit_series));
    Test.make ~name:"extension/anomaly-detect-64bins"
      (Staged.stage (fun () ->
           Ic_core.Anomaly.detect ~threshold:5. fitted.params fit_series));
    Test.make ~name:"extension/pgd-fit-64bins"
      (Staged.stage (fun () ->
           Ic_core.Pgd.fit_stable_fp
             ~options:{ Ic_core.Pgd.default_options with max_iters = 60 }
             fit_series));
    Test.make ~name:"extension/cyclo-fit-weekly"
      (Staged.stage
         (let xs =
            Ic_timeseries.Cyclo.generate
              (Ic_timeseries.Cyclo.make ~base_level:1e6 ())
              binning (Ic_prng.Rng.create 9) ~bins:2016
          in
          fun () -> Ic_timeseries.Cyclo_fit.fit binning xs));
  ]

(* Scenario layer: the cost of reacting to a topology event (a full
   constant-shape route recompute on the Géant-like graph), compiling a
   day-scale adversarial timeline, and the steady-state per-bin cost of
   replaying through the scenario runner (engine step + boundary scan). *)
let scenario_tests =
  let graph = geant_graph in
  let link_ids (e : Ic_topology.Graph.edge) =
    List.filter_map
      (fun (s, d) ->
        Option.map
          (fun (x : Ic_topology.Graph.edge) -> x.id)
          (Ic_topology.Graph.find_edge graph ~src:s ~dst:d))
      [ (e.src, e.dst); (e.dst, e.src) ]
  in
  let down =
    (* first link whose loss keeps the graph connected *)
    let rec go = function
      | [] -> failwith "scenario bench: every link is a bridge"
      | e :: rest -> (
          match Ic_topology.Routing.rebuild ~down:(link_ids e) routing with
          | _ -> link_ids e
          | exception Invalid_argument _ -> go rest)
    in
    go (Ic_topology.Graph.edges graph)
  in
  let e0 =
    List.find
      (fun (e : Ic_topology.Graph.edge) -> e.id = List.hd down)
      (Ic_topology.Graph.edges graph)
  in
  let bins = 48 in
  let spec =
    {
      Ic_core.Tm_family.default_spec with
      Ic_core.Tm_family.nodes = Ic_topology.Graph.node_count graph;
      bins;
    }
  in
  let base =
    Ic_core.Tm_family.generate Ic_core.Tm_family.Ic spec
      (Ic_prng.Rng.create 11)
  in
  let schedule =
    {
      Ic_scenario.Schedule.seed = 11;
      events =
        [
          Ic_scenario.Schedule.Link_fail
            {
              a = Ic_topology.Graph.name graph e0.src;
              b = Ic_topology.Graph.name graph e0.dst;
              at = 12;
              duration = Some 12;
            };
          Ic_scenario.Schedule.Ddos
            { victim = "ie"; at = 24; duration = 6; magnitude = 12. };
          Ic_scenario.Schedule.Flash_crowd
            { node = "be"; at = 36; duration = 6; boost = 3. };
        ];
    }
  in
  let tl = Ic_scenario.Timeline.compile ~graph ~base schedule in
  let scenario_config =
    let c =
      Ic_runtime.Engine.default_config
        (Ic_scenario.Timeline.base_routing tl)
        binning
    in
    { c with Ic_runtime.Engine.refit_every = 8; window = 32; recover_after = 4 }
  in
  [
    Test.make ~name:"scenario/route-recompute"
      (Staged.stage (fun () ->
           ignore (Ic_topology.Routing.rebuild ~down routing)));
    Test.make ~name:"scenario/timeline-compile"
      (Staged.stage (fun () ->
           ignore (Ic_scenario.Timeline.compile ~graph ~base schedule)));
    Test.make ~name:"scenario/overlay-per-bin"
      (Staged.stage
         (let engine = ref (Ic_runtime.Engine.create scenario_config) in
          let feed = ref (Ic_scenario.Runner.feed tl ~seed:11) in
          fun () ->
            if Ic_runtime.Feed.position !feed >= bins then begin
              engine := Ic_runtime.Engine.create scenario_config;
              feed := Ic_scenario.Runner.feed tl ~seed:11
            end;
            let upto = Ic_runtime.Feed.position !feed + 1 in
            ignore (Ic_scenario.Runner.play ~upto !engine !feed tl)));
  ]

(* Resilience: the self-healing runtime's steady-state overheads — the
   anomaly gate's per-bin quarantine decision (the fast-path acceptance is
   that gating stays within a few percent of the plain serving loop), the
   circuit-breaker feed delivery, the per-bin engine snapshot a supervised
   shard takes, and the robust detection scale's rolling-median pass. *)
let resilience_tests =
  [
    Test.make ~name:"resilience/engine-per-bin-gated"
      (Staged.stage
         (let engine =
            Ic_runtime.Engine.create
              { stream_config with Ic_runtime.Engine.gate_refits = true }
          in
          let k = ref 0 in
          fun () ->
            let loads, missing = stream_observations.(!k) in
            ignore (Ic_runtime.Engine.step engine ~loads ~missing);
            k := (!k + 1) mod Array.length stream_observations));
    Test.make ~name:"resilience/breaker-feed-next"
      (Staged.stage
         (let feed = ref None in
          fun () ->
            let f =
              match !feed with
              | Some f when Ic_runtime.Feed.position f
                            < Ic_runtime.Feed.length f ->
                  f
              | _ ->
                  let f =
                    Ic_runtime.Feed.create ~noise_sigma:0.01 ~drop_rate:0.4
                      ~corrupt_rate:0.1
                      ~breaker:Ic_runtime.Feed.default_breaker routing
                      fit_series ~seed:11
                  in
                  feed := Some f;
                  f
            in
            ignore (Ic_runtime.Feed.next f)));
    Test.make ~name:"resilience/snapshot-per-bin"
      (Staged.stage
         (let engine = Ic_runtime.Engine.create stream_config in
          let loads, missing = stream_observations.(0) in
          let () = ignore (Ic_runtime.Engine.step engine ~loads ~missing) in
          fun () -> ignore (Ic_runtime.Engine.snapshot engine)));
    Test.make ~name:"resilience/robust-detect"
      (Staged.stage (fun () ->
           ignore
             (Ic_core.Anomaly.detect ~scale:Ic_core.Anomaly.robust_scale
                fitted.params fit_series)));
  ]

(* Shootout: single-bin estimate cost of every registered estimator family
   on the Geant fixture (calibrated state, reused plan) — the latency axis
   of `ic-lab shootout` pinned as a bench group, so an accidentally
   quadratic stage in any family shows up in the per-PR diff without
   per-family bench code. *)
let shootout_tests =
  let module Estimator = Ic_estimation.Estimator in
  List.map
    (fun name ->
      let (module E : Estimator.S) = Estimator.find_exn name in
      Test.make
        ~name:("shootout/" ^ name ^ "-per-bin")
        (Staged.stage
           (let state = E.calibrate ~routing ~train:(Some fit_series) in
            let plan = Ic_estimation.Tomogravity.make_plan routing in
            let k = ref 0 in
            fun () ->
              let ctx =
                Estimator.make_ctx ~routing ~plan
                  ~link_loads:series_link_loads.(!k) ~bin:!k ()
              in
              ignore
                (Estimator.estimate_bin (module E) state ctx
                  : Ic_traffic.Tm.t * int);
              k := (!k + 1) mod Array.length series_link_loads)))
    (Estimator.names ())

(* The latest-tm answer for [one_bin] and its frame, as the serve plane
   sends them; the wire rows time the codec apart from the socket. *)
let tm_answer =
  Ic_serve.Wire.Tm
    { bin = 30; level = 0; n = Ic_traffic.Tm.size one_bin; values = one_bin_vec }

let tm_frame = Ic_serve.Wire.encode_response tm_answer

let substrate_tests =
  [
    Test.make ~name:"wire/encode-tm-22"
      (Staged.stage (fun () -> Ic_serve.Wire.encode_response tm_answer));
    Test.make ~name:"wire/decode-tm-22"
      (Staged.stage (fun () -> Ic_serve.Wire.decode_response tm_frame));
    Test.make ~name:"linalg/cholesky-122"
      (Staged.stage (fun () -> Ic_linalg.Chol.factorize spd_122));
    Test.make ~name:"linalg/cholesky-into-122"
      (Staged.stage
         (let l = Ic_linalg.Mat.create 122 122 in
          fun () -> Ic_linalg.Chol.factorize_into ~l spd_122));
    Test.make ~name:"linalg/eig-60"
      (Staged.stage
         (let m =
            let rng = Ic_prng.Rng.create 8 in
            let b =
              Ic_linalg.Mat.init 60 60 (fun _ _ ->
                  Ic_prng.Rng.float_range rng (-1.) 1.)
            in
            Ic_linalg.Mat.gram b
          in
          fun () -> Ic_linalg.Eig.decompose m));
    Test.make ~name:"stats/pca-150dims"
      (Staged.stage
         (let rng = Ic_prng.Rng.create 10 in
          let data =
            Ic_linalg.Mat.init 200 150 (fun _ _ ->
                Ic_prng.Rng.float_range rng 0. 1.)
          in
          fun () -> Ic_stats.Pca.fit data));
    Test.make ~name:"topology/routing-build-geant"
      (Staged.stage (fun () -> Ic_topology.Routing.build geant_graph));
    Test.make ~name:"topology/link-loads"
      (Staged.stage (fun () ->
           Ic_topology.Routing.link_loads routing one_bin_vec));
    Test.make ~name:"model/eval-one-bin"
      (Staged.stage (fun () ->
           Ic_core.Model.simplified ~f:0.22
             ~activity:fitted.params.activity.(30)
             ~preference:fitted.params.preference));
    Test.make ~name:"gravity/of-tm"
      (Staged.stage (fun () -> Ic_gravity.Gravity.of_tm one_bin));
    Test.make ~name:"prng/lognormal-1k"
      (Staged.stage
         (let rng = Ic_prng.Rng.create 1 in
          fun () ->
            for _ = 1 to 1000 do
              ignore (Ic_prng.Sampler.lognormal rng ~mu:0. ~sigma:1.)
            done));
  ]

(* ------------------------------------------------------------------ *)
(* Serving plane (custom harness)                                      *)
(* ------------------------------------------------------------------ *)

(* The serving benchmarks need a live acceptor/worker pool, warm client
   connections, and a load generator in flight — a shape bechamel's staged
   closures cannot hold. A small custom harness measures them with the
   same estimator (one discarded warmup pass, then min of [--repeat]
   recorded passes) and merges into the same results list, so the JSON
   trajectory and scripts/bench_diff.sh treat them uniformly.

   Units: serve/request-roundtrip is ns per request on one quiet
   connection. serve/qps-sustained is stored as ns per answered query
   under an unpaced multi-connection blast — lower is better, so the
   bench_diff regression gate applies unchanged, and the "sustains
   >= 10k queries/s" acceptance bar is exactly "<= 100000".
   serve/p99-latency-us is the 99th-percentile round-trip under that same
   blast, in MICROSECONDS (the one non-ns entry; the name carries the
   unit). *)

(* One serving worker per loadgen connection, one such pair per pair of
   available cores: a worker and its client ping-pong in lockstep, so
   each pair wants a core to itself. Oversubscribing a small host
   measures the kernel scheduler instead of the serving plane (on a
   1-CPU host 4/4 sustains ~8.6k qps where 1/1 sustains ~18k). *)
let serve_workers = max 1 (min 4 (Domain.recommended_domain_count () / 2))

let with_serve_server f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ic-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let listen = Ic_serve.Server.Unix_path sock in
  let source = Ic_serve.Source.create routing in
  Ic_serve.Source.publish source ~bin:0 ~level:0 one_bin;
  let handler = Ic_serve.Handler.create [ ("bench", source) ] in
  let config =
    {
      (Ic_serve.Server.default_config listen) with
      Ic_serve.Server.workers = serve_workers;
      max_inflight = 256;
    }
  in
  let server = Ic_serve.Server.start config handler in
  Fun.protect
    ~finally:(fun () ->
      Ic_serve.Server.stop server;
      Ic_serve.Server.wait server)
    (fun () -> f listen)

let serve_roundtrip_ns listen =
  let fd = Ic_serve.Server.connect listen in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let reader = Ic_serve.Wire.reader fd in
      let exchange req =
        Ic_serve.Wire.write_all fd (Ic_serve.Wire.encode_request req);
        match Ic_serve.Wire.read_response reader with
        | `Response (Ic_serve.Wire.Error { message; _ }) ->
            failwith ("serve bench: error response: " ^ message)
        | `Response _ -> ()
        | _ -> failwith "serve bench: connection died mid-roundtrip"
      in
      let iters = 2000 in
      let t0 = Ic_obs.Clock.now () in
      for k = 1 to iters do
        exchange
          (if k land 1 = 0 then Ic_serve.Wire.Ping (Int64.of_int k)
           else Ic_serve.Wire.Latest_tm { tenant = "bench" })
      done;
      (Ic_obs.Clock.now () -. t0) *. 1e9 /. float_of_int iters)

(* Keep connections <= workers: a worker owns a connection until its
   client closes it, so more loadgen connections than workers would
   measure accept-queue wait, not serving throughput. *)
let serve_blast listen =
  let config =
    {
      (Ic_serve.Loadgen.default_config listen) with
      Ic_serve.Loadgen.queries = 4000;
      connections = serve_workers;
      tenant = "bench";
    }
  in
  let outcome =
    Ic_serve.Loadgen.run ~probe:(Ic_traffic.Tm.size one_bin) config
  in
  if outcome.Ic_serve.Loadgen.transport_failures > 0 then
    failwith "serve bench: loadgen lost connections";
  let per_query_ns = 1e9 /. Ic_serve.Loadgen.qps outcome in
  let p99_us = Ic_serve.Loadgen.percentile outcome 99. in
  (per_query_ns, p99_us, outcome.Ic_serve.Loadgen.shed, outcome.sent)

let serve_results ~repeat () =
  Printf.printf "== serve plane ==\n%!";
  let min_of xs = Array.fold_left Float.min xs.(0) xs in
  let passes f =
    ignore (f ());
    (* discarded warmup, as for the bechamel groups *)
    Array.init (max 1 repeat) (fun _ -> f ())
  in
  with_serve_server (fun listen ->
      let roundtrip = min_of (passes (fun () -> serve_roundtrip_ns listen)) in
      let blasts = passes (fun () -> serve_blast listen) in
      let per_query = min_of (Array.map (fun (q, _, _, _) -> q) blasts) in
      let p99 = min_of (Array.map (fun (_, p, _, _) -> p) blasts) in
      let shed, sent =
        Array.fold_left
          (fun (s, n) (_, _, shed, sent) -> (s + shed, n + sent))
          (0, 0) blasts
      in
      Printf.printf "  %-36s %8.3f us/run\n%!" "serve/request-roundtrip"
        (roundtrip /. 1e3);
      Printf.printf "  %-36s %8.3f us/query (%.1fk qps sustained)\n%!"
        "serve/qps-sustained" (per_query /. 1e3) (1e6 /. per_query);
      Printf.printf "  %-36s %8.3f us p99, shed rate %d/%d\n%!"
        "serve/p99-latency-us" p99 shed sent;
      [
        ("serve/p99-latency-us", p99);
        ("serve/qps-sustained", per_query);
        ("serve/request-roundtrip", roundtrip);
      ])

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:None ()

let warmup_cfg = Benchmark.cfg ~limit:250 ~quota:(Time.second 0.1) ~kde:None ()

(* One pass over [test]: (name, ns per run) for each of its tests. *)
let measure cfg test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | _ -> Float.nan
      in
      (name, ns) :: acc)
    analyzed []

(* The traced-off budget's three terms (DESIGN.md "Observability
   architecture"), timed in [repeat] alternating rounds in one process
   after one discarded warmup pass of each: a round measures each term
   once, starting one term later than the round before, so every round's
   ratio sees one moment's machine and no term always runs first.
   scripts/check.sh computes each round's ratio from the printed lines and
   gates on their median. *)
let budget_results ~repeat () =
  Printf.printf "== traced-off budget ==\n%!";
  let terms = [| engine_per_bin; stage_traced_off; noop_span |] in
  Array.iter (fun t -> ignore (measure warmup_cfg t)) terms;
  for round = 1 to max 1 repeat do
    let ns = Array.make 3 Float.nan in
    for k = 0 to 2 do
      let i = (round + k) mod 3 in
      match measure cfg terms.(i) with
      | [ (_, v) ] -> ns.(i) <- v
      | _ -> ()
    done;
    Printf.printf
      "  round %d: stream/engine-per-bin %.1f ns, obs/stage-traced-off %.1f \
       ns, obs/noop-span %.1f ns\n\
       %!"
      round ns.(0) ns.(1) ns.(2)
  done;
  []

let run_group ~repeat label tests =
  Printf.printf "== %s ==\n%!" label;
  let results =
    List.concat_map
      (fun test ->
        (* One discarded pass primes caches, branch predictors, and the
           minor heap; then min-of-[repeat] recorded passes. *)
        ignore (measure warmup_cfg test);
        let reps = List.init (max 1 repeat) (fun _ -> measure cfg test) in
        List.fold_left
          (fun acc rep ->
            List.map
              (fun (name, best) ->
                match List.assoc_opt name rep with
                | Some ns when Float.is_finite ns ->
                    (name, if Float.is_finite best then Float.min best ns else ns)
                | _ -> (name, best))
              acc)
          (List.hd reps) (List.tl reps))
      tests
  in
  (* Hashtbl order is nondeterministic: sort by test name so the report is
     stable run-to-run (and diffs of BENCH_*.json files stay readable). *)
  let results = List.sort (fun (a, _) (b, _) -> compare a b) results in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "  %-36s %s/run\n%!" name pretty)
    results;
  results

let write_json (path, oc) results =
  let label =
    let base = Filename.remove_extension (Filename.basename path) in
    if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
      String.sub base 6 (String.length base - 6)
    else base
  in
  let results = List.sort (fun (a, _) (b, _) -> compare a b) results in
  Printf.fprintf oc "{\n  \"label\": %S,\n  \"unit\": \"ns/run\",\n" label;
  Printf.fprintf oc "  \"results\": {\n";
  let n = List.length results in
  List.iteri
    (fun k (name, ns) ->
      let value =
        if Float.is_finite ns then Printf.sprintf "%.3f" ns else "null"
      in
      Printf.fprintf oc "    %S: %s%s\n" name value
        (if k = n - 1 then "" else ","))
    results;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d results)\n%!" path n

let () =
  let json_out = ref None in
  let jobs = ref 1 in
  let repeat = ref 3 in
  let group_filter = ref None in
  let argv = Sys.argv in
  let usage why =
    Printf.eprintf
      "usage: %s [--json <path>] [--jobs <n>] [--repeat <n>] \
       [--group <prefix>[,<prefix>...]] (%s)\n"
      argv.(0) why;
    exit 2
  in
  let positive flag v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ -> usage (Printf.sprintf "%s needs a positive integer, got %s" flag v)
  in
  let i = ref 1 in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--json" when !i + 1 < Array.length argv ->
        incr i;
        (* Opened before the first group runs, so a bad path fails in
           milliseconds rather than after the whole suite. *)
        let path = argv.(!i) in
        (match open_out path with
        | oc -> json_out := Some (path, oc)
        | exception Sys_error e ->
            Printf.eprintf "cannot write --json output: %s\n" e;
            exit 2)
    | "--jobs" when !i + 1 < Array.length argv ->
        incr i;
        jobs := positive "--jobs" argv.(!i)
    | "--repeat" when !i + 1 < Array.length argv ->
        incr i;
        repeat := positive "--repeat" argv.(!i)
    | "--group" when !i + 1 < Array.length argv ->
        incr i;
        group_filter := Some argv.(!i)
    | arg -> usage ("unknown argument " ^ arg));
    incr i
  done;
  Printf.printf
    "IC traffic-matrix benchmarks (bechamel), --jobs %d, min of %d\n%!" !jobs
    !repeat;
  Ic_parallel.Pool.with_pool ~jobs:!jobs (fun pool ->
      let groups =
        [
          ("figure kernels", figure_tests);
          ("ablations", ablation_tests);
          ("batched estimation", batch_tests);
          ("streaming engine", stream_tests);
          ("parallel", parallel_tests ~pool);
          ("observability", obs_tests);
          ("extensions", extension_tests);
          ("scenario", scenario_tests);
          ("resilience", resilience_tests);
          ("shootout", shootout_tests);
          ("substrates", substrate_tests);
        ]
      in
      (* "serve plane" (live server + load generator) and "traced-off
         budget" (alternating rounds) are custom-harness groups, selected
         by the same prefix filter as the bechamel groups. *)
      let matches label =
        match !group_filter with
        | None -> true
        | Some g ->
            List.exists
              (fun p -> p <> "" && String.starts_with ~prefix:p label)
              (String.split_on_char ',' g)
      in
      let selected = List.filter (fun (label, _) -> matches label) groups in
      let serve_selected = matches "serve plane" in
      let budget_selected = matches "traced-off budget" in
      if selected = [] && (not serve_selected) && not budget_selected then begin
        Printf.eprintf "no benchmark group matches %S\n"
          (Option.value ~default:"" !group_filter);
        exit 2
      end;
      let all =
        List.concat_map
          (fun (label, tests) -> run_group ~repeat:!repeat label tests)
          selected
      in
      let all =
        if serve_selected then all @ serve_results ~repeat:!repeat () else all
      in
      let all =
        if budget_selected then all @ budget_results ~repeat:!repeat ()
        else all
      in
      Option.iter (fun out -> write_json out all) !json_out);
  print_endline "done."
