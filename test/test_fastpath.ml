(* Suite 25: the per-bin fast path — factor caching, transposed-factor
   solves, and the engine's frozen-weight regime.

   The contracts under test:
   - cache hits and full refactorizations are BIT-identical to a fresh
     plan (the factorization is a deterministic function of the weights);
   - [Chol.solve_into_t] is bit-identical to [Chol.solve_into];
   - a killed-and-resumed engine with a warm factor cache reproduces the
     uninterrupted stream bit-for-bit across refits and ladder moves;
   - plugged-in families that refine once share the regime-frozen weights,
     while iterative tomogravity keeps its per-sweep weights. *)

module Vec = Ic_linalg.Vec
module Mat = Ic_linalg.Mat
module Chol = Ic_linalg.Chol
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Tomogravity = Ic_estimation.Tomogravity
module Routing = Ic_topology.Routing
module Engine = Ic_runtime.Engine
module Checkpoint = Ic_runtime.Checkpoint
module Feed = Ic_runtime.Feed
module Replay = Ic_runtime.Replay
module Telemetry = Ic_runtime.Telemetry

let bits = Int64.bits_of_float

let check_vec_bits msg a b =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: length mismatch" msg;
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s[%d]: %h vs %h (not bit-identical)" msg i x b.(i))
    a

let check_tm_bits msg a b = check_vec_bits msg (Tm.unsafe_data a) (Tm.unsafe_data b)

let spd_matrix rng n =
  let b = Mat.init n n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  Mat.add (Mat.gram b) (Mat.scale (float_of_int n) (Mat.identity n))

let get_ok = function
  | Ok ch -> ch
  | Error _ -> Alcotest.fail "factorization failed on an SPD matrix"

(* --- transposed triangular solves ----------------------------------------- *)

let test_solve_into_t_bit_identical () =
  let rng = Ic_prng.Rng.create 2503 in
  List.iter
    (fun n ->
      let ch = get_ok (Chol.factorize (spd_matrix rng n)) in
      let lt = Mat.create n n in
      Chol.transpose_into ch ~lt;
      let b = Array.init n (fun _ -> Ic_prng.Rng.float_range rng (-3.) 3.) in
      let x1 = Array.copy b and x2 = Array.copy b in
      Chol.solve_into ch x1;
      Chol.solve_into_t ch ~lt x2;
      check_vec_bits (Printf.sprintf "solve_into_t n=%d" n) x1 x2)
    [ 1; 7; 23 ]

(* --- the tomogravity factor cache ---------------------------------------- *)

let binning = Ic_timeseries.Timebin.five_min

let make_world seed =
  let graph = Ic_topology.Topologies.abilene_like () in
  let routing = Routing.build graph in
  let n = Ic_topology.Graph.node_count graph in
  let rng = Ic_prng.Rng.create seed in
  let bins = 8 in
  let tms =
    Array.init bins (fun _ ->
        Tm.init n (fun i j ->
            if i = j then 0.
            else Ic_prng.Sampler.lognormal rng ~mu:10. ~sigma:1.2))
  in
  (routing, Series.make binning tms)

let world_inputs routing series =
  let bins = Series.length series in
  let link_loads =
    Array.init bins (fun k ->
        Routing.link_loads routing (Tm.to_vector (Series.tm series k)))
  in
  let priors =
    Array.init bins (fun k -> Ic_gravity.Gravity.of_tm (Series.tm series k))
  in
  (link_loads, priors)

let test_cached_factor_bit_identical () =
  let routing, series = make_world 31 in
  let link_loads, priors = world_inputs routing series in
  let bins = Array.length priors in
  let weights = Vec.clamp_nonneg (Tm.to_vector (Series.tm series 0)) in
  let plan = Tomogravity.make_plan routing in
  for k = 0 to bins - 1 do
    let cached =
      Tomogravity.estimate_with_plan ~weights plan ~link_loads:link_loads.(k)
        ~prior:priors.(k)
    in
    (* a cold plan refactorizes from scratch for the same inputs *)
    let fresh_plan = Tomogravity.make_plan routing in
    let fresh =
      Tomogravity.estimate_with_plan ~weights fresh_plan
        ~link_loads:link_loads.(k) ~prior:priors.(k)
    in
    check_tm_bits (Printf.sprintf "cached vs fresh, bin %d" k) fresh cached
  done;
  let stats = Tomogravity.plan_fastpath_stats plan in
  Alcotest.(check int) "one refactorization" 1 stats.Tomogravity.refactorizes;
  Alcotest.(check int) "rest are hits" (bins - 1) stats.Tomogravity.hits

let test_invalidate_forces_refactorize () =
  let routing, series = make_world 32 in
  let link_loads, priors = world_inputs routing series in
  let weights = Vec.clamp_nonneg (Tm.to_vector (Series.tm series 0)) in
  let plan = Tomogravity.make_plan routing in
  let est k =
    Tomogravity.estimate_with_plan ~weights plan ~link_loads:link_loads.(k)
      ~prior:priors.(k)
  in
  let a = est 0 in
  Tomogravity.plan_invalidate plan;
  let b = est 0 in
  check_tm_bits "invalidation changes nothing but the work" a b;
  let stats = Tomogravity.plan_fastpath_stats plan in
  Alcotest.(check int) "both calls refactorized" 2
    stats.Tomogravity.refactorizes

(* --- the engine's frozen-weight fast path -------------------------------- *)

let graph = Ic_topology.Topologies.abilene_like ()
let routing = Ic_topology.Routing.build graph

let series =
  let spec =
    {
      Ic_core.Synth.default_spec with
      nodes = Ic_topology.Graph.node_count graph;
      binning;
      bins = 40;
      mean_total_bytes = 1e9;
    }
  in
  (Ic_core.Synth.generate spec (Ic_prng.Rng.create 99)).Ic_core.Synth.series

let config ?(refit_every = 6) () =
  {
    (Engine.default_config routing binning) with
    Engine.refit_every;
    window = 12;
    refit_sweeps = 4;
    stale_after = 24;
    impute_budget = 1;
    recover_after = 3;
  }

let mk_feed ?(drop = 0.05) ~seed () =
  Feed.create ~noise_sigma:0.01 ~drop_rate:drop ~corrupt_rate:0.01 routing
    series ~seed

let test_engine_warm_cache_counters () =
  (* One regime, no refits, clean feed: a single factorization serves the
     whole run. *)
  let cfg = { (config ~refit_every:1000 ()) with Engine.recover_after = 1000 } in
  let engine = Engine.create cfg in
  let feed = mk_feed ~drop:0. ~seed:7 () in
  ignore (Replay.run ~max_bins:20 engine feed);
  let tel = Engine.telemetry engine in
  Alcotest.(check int) "one refactorization" 1
    (Telemetry.count tel "fastpath.refactorize");
  Alcotest.(check int) "rest served from the cache" 19
    (Telemetry.count tel "fastpath.hit")

let test_engine_kill_resume_warm_cache () =
  (* Resume mid-regime: the restored engine must refreeze from the
     checkpointed weights (not this bin's prior) to stay bit-identical.
     n1 = 13 lands after the refit at bin 12, with a warm cache. *)
  let cfg = config () in
  let n1 = 13 and n2 = 12 in
  let head_engine = Engine.create cfg in
  let feed = mk_feed ~seed:41 () in
  let head = Replay.run ~max_bins:n1 head_engine feed in
  let path = Filename.temp_file "ic_fastpath" ".ckpt" in
  Checkpoint.save ~path head_engine;
  let restored =
    match Checkpoint.load ~path ~config:cfg with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Sys.remove path;
  let feed2 = mk_feed ~seed:41 () in
  Feed.skip feed2 n1;
  let tail = Replay.run ~max_bins:n2 restored feed2 in
  let full_engine = Engine.create cfg in
  let feed3 = mk_feed ~seed:41 () in
  let full = Replay.run ~max_bins:(n1 + n2) full_engine feed3 in
  Alcotest.(check bool) "resumed stream bit-identical" true
    (Replay.bit_identical
       (Array.append head.Replay.estimates tail.Replay.estimates)
       full.Replay.estimates)

(* --- plugged-in families under the engine's weight policy ---------------- *)

let plugin_config estimator = { (config ()) with Engine.estimator }

(* No drops and no corruptions: every bin stays on the top rung, so the
   whole run is one regime. *)
let clean_feed ~seed () =
  Feed.create ~noise_sigma:0.01 ~drop_rate:0. ~corrupt_rate:0. routing series
    ~seed

let test_plugin_frozen_weights () =
  (* A family that refines once against its prior refines with the
     engine's regime-frozen weights: one factorization serves the regime,
     and its IPF runs are counted like the native path's. *)
  let engine = Engine.create (plugin_config "tomogravity") in
  ignore (Replay.run ~max_bins:20 engine (clean_feed ~seed:7 ()));
  let tel = Engine.telemetry engine in
  Alcotest.(check int) "one refactorization" 1
    (Telemetry.count tel "fastpath.refactorize");
  Alcotest.(check int) "rest served from the cache" 19
    (Telemetry.count tel "fastpath.hit");
  Alcotest.(check bool) "ipf iterations counted" true
    (Telemetry.count tel "ipf.iterations" > 0)

let test_iterative_opts_out () =
  (* Iterative tomogravity re-derives its weights every sweep, so it never
     refines with the frozen ones: three factorizations per bin, and every
     engine estimate equals [Estimator.estimate_bin]'s on the same loads. *)
  let name = "tomogravity-iterative" in
  let engine = Engine.create (plugin_config name) in
  let ((module E) as est) = Ic_estimation.Estimator.find_exn name in
  let state = E.calibrate ~routing ~train:None in
  let plan = Tomogravity.make_plan routing in
  let feed = clean_feed ~seed:7 () in
  for k = 0 to 19 do
    match Feed.next feed with
    | None -> Alcotest.fail "feed exhausted"
    | Some (loads, missing) ->
        let out = Engine.step engine ~loads ~missing in
        let ctx =
          Ic_estimation.Estimator.make_ctx ~routing ~plan ~link_loads:loads
            ~bin:k ()
        in
        let batch, _ = Ic_estimation.Estimator.estimate_bin est state ctx in
        check_tm_bits (Printf.sprintf "bin %d" k) batch out.Engine.estimate
  done;
  let tel = Engine.telemetry engine in
  Alcotest.(check int) "three factorizations per bin" 60
    (Telemetry.count tel "fastpath.refactorize");
  Alcotest.(check int) "no cache hits" 0 (Telemetry.count tel "fastpath.hit")

let test_plugin_kill_resume_mid_regime () =
  (* The snapshot carries the plugin's frozen weights, and the restored
     engine refines with them instead of refreezing from the first
     post-resume bin's prior. *)
  let cfg = plugin_config "tomogravity" in
  let n1 = 10 and n2 = 10 in
  let head_engine = Engine.create cfg in
  let head = Replay.run ~max_bins:n1 head_engine (clean_feed ~seed:41 ()) in
  (match (Engine.snapshot head_engine).Engine.s_frozen with
  | Some (Ic_runtime.Degrade.Measured_ic, _) -> ()
  | Some _ -> Alcotest.fail "weights frozen at the wrong rung"
  | None -> Alcotest.fail "snapshot carries no frozen record");
  let path = Filename.temp_file "ic_fastpath" ".ckpt" in
  Checkpoint.save ~path head_engine;
  let restored =
    match Checkpoint.load ~path ~config:cfg with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  Sys.remove path;
  let feed2 = clean_feed ~seed:41 () in
  Feed.skip feed2 n1;
  let tail = Replay.run ~max_bins:n2 restored feed2 in
  let full =
    Replay.run ~max_bins:(n1 + n2) (Engine.create cfg) (clean_feed ~seed:41 ())
  in
  Alcotest.(check bool) "resumed stream bit-identical" true
    (Replay.bit_identical
       (Array.append head.Replay.estimates tail.Replay.estimates)
       full.Replay.estimates)

(* Frozen weights round-trip the checkpoint and hold kill/resume
   bit-identity at arbitrary cut points (qcheck). *)
let resume_bit_identical (seed, n1, n2) =
  let cfg = config () in
  let head_engine = Engine.create cfg in
  let feed = mk_feed ~seed () in
  let head = Replay.run ~max_bins:n1 head_engine feed in
  let snap = Engine.snapshot head_engine in
  let restored =
    match Checkpoint.decode (Checkpoint.encode snap) with
    | Ok s -> Engine.restore cfg s
    | Error m -> failwith m
  in
  let feed2 = mk_feed ~seed () in
  Feed.skip feed2 n1;
  let tail = Replay.run ~max_bins:n2 restored feed2 in
  let full_engine = Engine.create cfg in
  let full = Replay.run ~max_bins:(n1 + n2) full_engine (mk_feed ~seed ()) in
  Replay.bit_identical
    (Array.append head.Replay.estimates tail.Replay.estimates)
    full.Replay.estimates

let resume_property =
  QCheck.Test.make ~count:6
    ~name:"warm-cache resume is bit-identical (qcheck)"
    QCheck.(triple (int_range 0 1000) (int_range 1 20) (int_range 1 15))
    resume_bit_identical

let () =
  Alcotest.run "ic_fastpath"
    [
      ( "batched solves",
        [
          Alcotest.test_case "solve_into_t bit-identical" `Quick
            test_solve_into_t_bit_identical;
        ] );
      ( "factor cache",
        [
          Alcotest.test_case "cached factor bit-identical to fresh" `Quick
            test_cached_factor_bit_identical;
          Alcotest.test_case "invalidate forces refactorization" `Quick
            test_invalidate_forces_refactorize;
        ] );
      ( "engine fast path",
        [
          Alcotest.test_case "warm cache counters" `Quick
            test_engine_warm_cache_counters;
          Alcotest.test_case "kill/resume with warm cache" `Quick
            test_engine_kill_resume_warm_cache;
          Alcotest.test_case "plugin refines with frozen weights" `Quick
            test_plugin_frozen_weights;
          Alcotest.test_case "iterative tomogravity opts out" `Quick
            test_iterative_opts_out;
          Alcotest.test_case "plugin kill/resume mid-regime" `Quick
            test_plugin_kill_resume_mid_regime;
          QCheck_alcotest.to_alcotest resume_property;
        ] );
    ]
