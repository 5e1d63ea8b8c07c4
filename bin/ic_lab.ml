(* ic-lab: command-line driver for the IC traffic-matrix laboratory. *)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* Named choices of the CLI. Each is declared to cmdliner as an enum over
   these names (see [names_of] below), so an unknown name is a usage error
   before any work starts, and the lookups here cannot fail. *)
let datasets =
  [
    ("geant", (Ic_datasets.Geant.spec, Ic_datasets.Geant.generate));
    ("totem", (Ic_datasets.Totem.spec, Ic_datasets.Totem.generate));
  ]

let load_dataset which weeks seed =
  (snd (List.assoc which datasets)) ?weeks ?seed ()

(* A dataset's shape from its spec alone, so flags can be checked against
   it before any traffic is generated. *)
let dataset_spec which weeks = (fst (List.assoc which datasets)) ?weeks ()

let week_error which weeks ~flag w =
  let count = (dataset_spec which weeks).Ic_datasets.Dataset.weeks in
  if w >= 0 && w < count then None
  else
    Some
      (Printf.sprintf "%s %d is outside dataset %s's weeks 0..%d" flag w which
         (count - 1))

let dataset_bins which weeks =
  let spec = dataset_spec which weeks in
  spec.Ic_datasets.Dataset.weeks
  * Ic_timeseries.Timebin.bins_per_week spec.Ic_datasets.Dataset.binning

let topologies =
  [
    ("geant", Ic_topology.Topologies.geant_like);
    ("totem", Ic_topology.Topologies.totem_like);
    ("abilene", Ic_topology.Topologies.abilene_like);
  ]

let build_topology name = (List.assoc name topologies) ()

(* --- span tracing (--trace FILE) --------------------------------------- *)

(* Retention sized for a full-dataset replay: a bin emits ~10 spans, so
   64k spans cover several thousand bins before the ring starts evicting
   the oldest. *)
let make_tracer = function
  | None -> Ic_obs.Trace.noop
  | Some _ -> Ic_obs.Trace.create ~capacity:65536 ()

let export_trace tracer = function
  | None -> ()
  | Some path ->
      let n = Ic_obs.Trace.export_jsonl ~path tracer in
      Printf.printf "wrote %d spans to %s\n" n path

(* --- experiment ------------------------------------------------------- *)

let run_experiments ids stride out_dir verbose =
  setup_logs verbose;
  let ctx = Ic_experiments.Context.create ~stride ?out_dir () in
  let targets =
    match ids with
    | [] | [ "all" ] -> Ic_experiments.Registry.ids
    | ids -> ids
  in
  let missing =
    List.filter
      (fun id -> Option.is_none (Ic_experiments.Registry.find id))
      targets
  in
  if missing <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable: %s\n"
      (String.concat ", " missing)
      (String.concat ", " Ic_experiments.Registry.ids);
    exit 1
  end;
  List.iter
    (fun id ->
      let run = Option.get (Ic_experiments.Registry.find id) in
      let outcome = run ctx in
      print_string (Ic_experiments.Outcome.render outcome);
      (match Ic_experiments.Context.out_dir ctx with
      | Some dir ->
          let path = Ic_experiments.Outcome.write_csv ~dir outcome in
          Printf.printf "  [series written to %s]\n" path;
          let spec =
            (* Figure 7 is the paper's log-log CCDF *)
            if id = "fig7" then
              Some
                {
                  Ic_report.Svg_plot.default_spec with
                  title = outcome.Ic_experiments.Outcome.title;
                  x_axis = Ic_report.Svg_plot.Log;
                  y_axis = Ic_report.Svg_plot.Log;
                }
            else None
          in
          (match Ic_experiments.Outcome.write_svg ?spec ~dir outcome with
          | Some svg -> Printf.printf "  [chart written to %s]\n" svg
          | None -> ())
      | None -> ());
      print_newline ())
    targets

(* --- gen --------------------------------------------------------------- *)

let run_gen which weeks seed out =
  let ds = load_dataset which weeks seed in
  Ic_traffic.Csv_io.write_series ~path:out ds.Ic_datasets.Dataset.series;
  Printf.printf "wrote %d bins x %d nodes to %s\n"
    (Ic_traffic.Series.length ds.Ic_datasets.Dataset.series)
    (Ic_traffic.Series.size ds.Ic_datasets.Dataset.series)
    out

(* --- fit --------------------------------------------------------------- *)

let subsample stride series =
  if stride = 1 then series
  else begin
    let len = max 1 (Ic_traffic.Series.length series / stride) in
    Ic_traffic.Series.make series.Ic_traffic.Series.binning
      (Array.init len (fun k ->
           Ic_traffic.Series.tm series
             (min (k * stride) (Ic_traffic.Series.length series - 1))))
  end

let run_fit which weeks seed source stride bin_minutes =
  let series, name_of =
    match source with
    | `Csv (path, n) ->
        let binning =
          Ic_timeseries.Timebin.make ~width_s:(bin_minutes * 60)
        in
        let series = Ic_traffic.Csv_io.read_series ~path ~binning ~n in
        (series, string_of_int)
    | `Week week ->
        let ds = load_dataset which weeks seed in
        ( Ic_datasets.Dataset.week ds week,
          fun i -> Ic_topology.Graph.name ds.Ic_datasets.Dataset.graph i )
  in
  let series = subsample stride series in
  let fit = Ic_core.Fit.fit_stable_fp series in
  Printf.printf "stable-fP fit (%d bins, %d nodes)\n"
    (Ic_traffic.Series.length series)
    (Ic_traffic.Series.size series);
  Printf.printf "  f = %.4f\n" fit.params.f;
  Printf.printf "  mean RelL2 = %.4f (sweeps %d)\n" fit.mean_error fit.sweeps;
  Printf.printf "  preferences:\n";
  Array.iteri
    (fun i p -> Printf.printf "    %-6s %.4f\n" (name_of i) p)
    fit.params.preference

(* --- estimate ---------------------------------------------------------- *)

(* Unknown estimator names exit through the CLI's own error path (listing
   the registry) rather than surfacing as an exception backtrace. *)
let check_estimator name =
  if not (Ic_estimation.Estimator.mem name) then begin
    Printf.eprintf "unknown estimator %s\navailable: %s\n" name
      (String.concat ", " (Ic_estimation.Estimator.names ()));
    exit 1
  end

(* The [--prior] choices of [estimate]: each builds the prior series for the
   target week, fitting on the calibration week (forced only by the priors
   that need it) where it needs a fit. *)
let priors =
  [
    ("gravity", fun ~calib:_ truth -> Ic_estimation.Prior.gravity truth);
    ( "measured",
      fun ~calib:_ truth ->
        let fit = Ic_core.Fit.fit_stable_fp truth in
        Ic_estimation.Prior.ic_measured fit.params
          truth.Ic_traffic.Series.binning );
    ( "stable-fp",
      fun ~calib truth ->
        let fit = Ic_core.Fit.fit_stable_fp (calib ()) in
        Ic_estimation.Prior.ic_stable_fp ~f:fit.params.f
          ~preference:fit.params.preference truth );
    ( "stable-f",
      fun ~calib truth ->
        let fit = Ic_core.Fit.fit_stable_fp (calib ()) in
        Ic_estimation.Prior.ic_stable_f ~f:fit.params.f truth );
  ]

let run_estimate which weeks seed (calib_week, target_week) prior_name
    estimator stride jobs trace =
  Option.iter check_estimator estimator;
  let ds = load_dataset which weeks seed in
  let take w = subsample stride (Ic_datasets.Dataset.week ds w) in
  let truth = take target_week in
  let routing = Ic_topology.Routing.build ds.Ic_datasets.Dataset.graph in
  match estimator with
  | Some name ->
      let (module E : Ic_estimation.Estimator.S) =
        Ic_estimation.Estimator.find_exn name
      in
      let tracer = make_tracer trace in
      let result =
        Ic_parallel.Pool.with_pool ~jobs ~tracer (fun pool ->
            Ic_estimation.Pipeline.run_estimator ~tracer ~pool
              (module E)
              ~routing ~train:(take calib_week) ~truth ())
      in
      Printf.printf
        "estimated %s week %d with %s estimator: mean RelL2 = %.4f over %d \
         bins\n"
        which target_week name result.mean_error
        (Array.length result.per_bin_error);
      export_trace tracer trace
  | None ->
  let config = Ic_estimation.Pipeline.default_config routing in
  let calib () = take calib_week in
  let prior = (List.assoc prior_name priors) ~calib truth in
  (* The parallel path is qcheck-pinned bit-identical to the sequential
     one, so --jobs only changes wall-clock, never the numbers below.
     Tracing likewise only observes. *)
  let tracer = make_tracer trace in
  let result =
    Ic_parallel.Pool.with_pool ~jobs ~tracer (fun pool ->
        Ic_estimation.Pipeline.run_par ~tracer ~pool config ~truth ~prior)
  in
  Printf.printf
    "estimated %s week %d with %s prior: mean RelL2 = %.4f over %d bins\n"
    which target_week prior_name result.mean_error
    (Array.length result.per_bin_error);
  export_trace tracer trace

(* --- trace --------------------------------------------------------------- *)

let run_trace seed duration_s connections_per_bin =
  let ab =
    Ic_datasets.Abilene.generate ?seed ~duration_s ~connections_per_bin ()
  in
  let report name (trace : Ic_netflow.Trace.t) =
    let m = Ic_netflow.Trace.measure_f trace ~bin_s:300. in
    let f_ij = Array.map (fun b -> b.Ic_netflow.Trace.f_ij) m in
    let f_ji = Array.map (fun b -> b.Ic_netflow.Trace.f_ji) m in
    let mean a =
      if Array.length a = 0 then 0.
      else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
    in
    Printf.printf "%s (%d fwd pkts, %d rev pkts):\n" name
      (List.length trace.fwd) (List.length trace.rev);
    Printf.printf "  f forward  %.3f  %s\n" (mean f_ij)
      (Ic_report.Sparkline.render f_ij);
    Printf.printf "  f reverse  %.3f  %s\n" (mean f_ji)
      (Ic_report.Sparkline.render f_ji);
    Printf.printf "  unknown traffic: %.1f%%\n"
      (100. *. Ic_netflow.Trace.unknown_fraction m)
  in
  Printf.printf "application-mix aggregate f: %.3f\n"
    (Ic_netflow.App_mix.aggregate_f ab.mix);
  report "IPLS <-> CLEV" ab.trace_clev;
  report "IPLS <-> KSCY" ab.trace_kscy

(* --- whatif -------------------------------------------------------------- *)

let run_whatif (graph, crowd) boost f_new seed =
  let routing = Ic_topology.Routing.build ~with_marginals:false graph in
  let binning = Ic_timeseries.Timebin.five_min in
  let spec =
    {
      Ic_core.Synth.default_spec with
      nodes = Ic_topology.Graph.node_count graph;
      binning;
      bins = Ic_timeseries.Timebin.bins_per_day binning;
      mean_total_bytes = 40e9;
    }
  in
  let { Ic_core.Synth.series = _; truth } =
    Ic_core.Synth.generate spec
      (Ic_prng.Rng.create (Option.value ~default:77 seed))
  in
  let scenario =
    let t = truth in
    let t =
      match crowd with
      | Some node -> Ic_core.Synth.with_flash_crowd ~node ~boost t
      | None -> t
    in
    match f_new with
    | Some f -> Ic_core.Synth.with_application_shift ~f t
    | None -> t
  in
  let peak params =
    let series = Ic_core.Model.stable_fp params binning in
    let m = Ic_topology.Graph.edge_count graph in
    let out = Array.make m 0. in
    for k = 0 to Ic_traffic.Series.length series - 1 do
      let y =
        Ic_topology.Routing.link_loads routing
          (Ic_traffic.Tm.to_vector (Ic_traffic.Series.tm series k))
      in
      for e = 0 to m - 1 do
        out.(e) <- Float.max out.(e) y.(e)
      done
    done;
    out
  in
  let base = peak truth and changed = peak scenario in
  Printf.printf "%-12s %12s %12s %8s\n" "link" "base-peak" "whatif-peak" "delta";
  let rows =
    List.map
      (fun (e : Ic_topology.Graph.edge) ->
        let d =
          if base.(e.id) > 0. then
            100. *. (changed.(e.id) -. base.(e.id)) /. base.(e.id)
          else 0.
        in
        (e, d))
      (Ic_topology.Graph.edges graph)
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a)) rows in
  List.iteri
    (fun k ((e : Ic_topology.Graph.edge), d) ->
      if k < 12 then
        Printf.printf "%-5s->%-5s %12.3g %12.3g %+7.1f%%\n"
          (Ic_topology.Graph.name graph e.src)
          (Ic_topology.Graph.name graph e.dst)
          base.(e.id) changed.(e.id) d)
    sorted

(* --- stream -------------------------------------------------------------- *)

(* Sharded streaming: split the replay into [shards] contiguous time
   ranges, run one independent engine per shard on a [jobs]-domain pool,
   and report the order-independent merged telemetry. Kill/resume goes
   through the atomic all-shard checkpoint. *)
let run_stream_sharded which series routing config ~shards ~jobs ~total
    ~feed_seed ~noise ~drop_rate ~corrupt_rate ~kill_after ~resume
    ~checkpoint_path ~tracer =
  let series = Ic_traffic.Series.sub series ~pos:0 ~len:total in
  let per_shard = total / shards in
  let specs () =
    List.init shards (fun s ->
        let pos = s * per_shard in
        let len = if s = shards - 1 then total - pos else per_shard in
        let sub = Ic_traffic.Series.sub series ~pos ~len in
        {
          Ic_runtime.Shard.name = Printf.sprintf "%s-%d" which s;
          config;
          feed =
            Ic_runtime.Feed.create ~noise_sigma:noise ~drop_rate ~corrupt_rate
              routing sub ~seed:(feed_seed + s);
        })
  in
  Printf.printf
    "streaming %s: %d bins x %d nodes in %d shards (jobs %d, drop %.1f%%, corrupt %.1f%%, noise %.1f%%)\n"
    which total
    (Ic_traffic.Series.size series)
    shards jobs (100. *. drop_rate) (100. *. corrupt_rate) (100. *. noise);
  Ic_parallel.Pool.with_pool ~jobs ~tracer (fun pool ->
      let uninterrupted () =
        let fleet = Ic_runtime.Shard.create ~pool (specs ()) in
        Ic_runtime.Shard.run fleet
      in
      let fleet, final =
        match kill_after with
        | Some k ->
            let fleet0 = Ic_runtime.Shard.create ~tracer ~pool (specs ()) in
            ignore (Ic_runtime.Shard.run ~max_bins:k fleet0);
            Ic_runtime.Shard.save ~path:checkpoint_path fleet0;
            Printf.printf
              "killed after %d bins per shard; fleet checkpoint written to %s\n"
              k checkpoint_path;
            if not resume then (fleet0, Ic_runtime.Shard.results fleet0)
            else begin
              match
                Ic_runtime.Shard.load ~tracer ~path:checkpoint_path ~pool
                  (specs ())
              with
              | Error e ->
                  prerr_endline e;
                  exit 1
              | Ok fleet1 ->
                  let combined = Ic_runtime.Shard.run fleet1 in
                  let shadow = uninterrupted () in
                  let identical =
                    List.for_all2
                      (fun (name_a, (a : Ic_runtime.Replay.result))
                           (name_b, (b : Ic_runtime.Replay.result)) ->
                        (* head estimates live in fleet0, tail in fleet1 *)
                        let head =
                          (List.assoc name_a
                             (Ic_runtime.Shard.results fleet0))
                            .Ic_runtime.Replay.estimates
                        in
                        name_a = name_b
                        && Ic_runtime.Replay.bit_identical
                             (Array.append head a.Ic_runtime.Replay.estimates)
                             b.Ic_runtime.Replay.estimates)
                      combined shadow
                  in
                  Printf.printf
                    "resume check: all %d shards bit-identical to uninterrupted runs: %s\n"
                    shards
                    (if identical then "yes" else "NO");
                  if not identical then exit 1;
                  (fleet1, combined)
            end
        | None ->
            let fleet = Ic_runtime.Shard.create ~tracer ~pool (specs ()) in
            let res = Ic_runtime.Shard.run fleet in
            (fleet, res)
      in
      List.iter
        (fun (name, (_ : Ic_runtime.Replay.result)) ->
          let engine =
            List.assoc name (Ic_runtime.Shard.engines fleet)
          in
          (* bins_seen, not the result's estimate count: after a resume the
             fleet only accumulates post-restore estimates, but the engine
             knows its full stream position. *)
          Printf.printf "shard %s: %d bins, final rung %s, %d transitions\n"
            name
            (Ic_runtime.Engine.bins_seen engine)
            (Ic_runtime.Degrade.level_name (Ic_runtime.Engine.level engine))
            (List.length (Ic_runtime.Engine.transitions engine)))
        final;
      print_string (Ic_runtime.Shard.merged_dump fleet))

let run_stream which weeks seed bins drop_rate corrupt_rate noise open_loop
    kill_after resume checkpoint_path refit_every window recover_after
    full_telemetry estimator shards jobs trace verbose =
  setup_logs verbose;
  check_estimator estimator;
  let tracer = make_tracer trace in
  let ds = load_dataset which weeks seed in
  let series = ds.Ic_datasets.Dataset.series in
  let routing = Ic_topology.Routing.build ds.Ic_datasets.Dataset.graph in
  let binning = series.Ic_traffic.Series.binning in
  let config =
    let c = Ic_runtime.Engine.default_config routing binning in
    let c = { c with Ic_runtime.Engine.estimator } in
    let c =
      match refit_every with
      | Some r -> { c with Ic_runtime.Engine.refit_every = r }
      | None -> c
    in
    let c =
      match window with
      | Some w -> { c with Ic_runtime.Engine.window = w }
      | None -> c
    in
    match recover_after with
    | Some r -> { c with Ic_runtime.Engine.recover_after = r }
    | None -> c
  in
  let feed_seed = Option.value ~default:7 seed in
  let total =
    let len = Ic_traffic.Series.length series in
    match bins with Some b -> min b len | None -> len
  in
  let openloop =
    match open_loop with
    | None -> None
    | Some rate ->
        let duration =
          float_of_int total
          *. float_of_int binning.Ic_timeseries.Timebin.width_s
        in
        let events =
          Ic_runtime.Feed.Openloop.schedule ~rate ~duration ~seed:feed_seed ()
        in
        Printf.printf
          "open-loop overlay: %d Poisson arrivals at %.3g/s over %.0f s\n"
          (Array.length events) rate duration;
        Some events
  in
  (* Each engine counts its own feed's fault outcomes: the feed is built
     against the engine's telemetry sink so feed.* counters land next to
     the engine/fastpath counters in one dump. *)
  let fresh_feed ?telemetry () =
    Ic_runtime.Feed.create ~noise_sigma:noise ~drop_rate ~corrupt_rate
      ?openloop ?telemetry routing series ~seed:feed_seed
  in
  if shards > 1 then begin
    run_stream_sharded which series routing config ~shards ~jobs ~total
      ~feed_seed ~noise ~drop_rate ~corrupt_rate ~kill_after ~resume
      ~checkpoint_path ~tracer;
    export_trace tracer trace
  end
  else begin
  Printf.printf "streaming %s: %d bins x %d nodes (drop %.1f%%, corrupt %.1f%%, noise %.1f%%)\n"
    which total
    (Ic_traffic.Series.size series)
    (100. *. drop_rate) (100. *. corrupt_rate) (100. *. noise);
  let run_uninterrupted () =
    let engine = Ic_runtime.Engine.create config in
    let feed =
      fresh_feed ~telemetry:(Ic_runtime.Engine.telemetry engine) ()
    in
    let res = Ic_runtime.Replay.run ~max_bins:total engine feed in
    (engine, res)
  in
  let engine, estimates =
    match kill_after with
    | Some k ->
        let engine0 = Ic_runtime.Engine.create ~tracer config in
        let head =
          Ic_runtime.Replay.run ~max_bins:k engine0
            (fresh_feed ~telemetry:(Ic_runtime.Engine.telemetry engine0) ())
        in
        Ic_runtime.Checkpoint.save ~path:checkpoint_path engine0;
        Printf.printf "killed after %d bins; checkpoint written to %s\n" k
          checkpoint_path;
        if not resume then (engine0, head.Ic_runtime.Replay.estimates)
        else begin
          match
            Ic_runtime.Checkpoint.load ~path:checkpoint_path ~config
          with
          | Error e ->
              prerr_endline e;
              exit 1
          | Ok engine1 ->
              (* The restored sink already carries the head's feed.*
                 counts, and skip counts nothing, so resumed totals equal
                 the uninterrupted run's. *)
              let feed =
                fresh_feed ~telemetry:(Ic_runtime.Engine.telemetry engine1) ()
              in
              Ic_runtime.Feed.skip feed k;
              let tail =
                Ic_runtime.Replay.run ~max_bins:(total - k) engine1 feed
              in
              Printf.printf "resumed from bin %d, processed %d more bins\n" k
                (Array.length tail.Ic_runtime.Replay.estimates);
              let combined =
                Array.append head.Ic_runtime.Replay.estimates
                  tail.Ic_runtime.Replay.estimates
              in
              let _, shadow = run_uninterrupted () in
              let identical =
                Ic_runtime.Replay.bit_identical combined
                  shadow.Ic_runtime.Replay.estimates
              in
              Printf.printf
                "resume check: estimates bit-identical to uninterrupted run: %s\n"
                (if identical then "yes" else "NO");
              if not identical then exit 1;
              (engine1, combined)
        end
    | None ->
        let engine = Ic_runtime.Engine.create ~tracer config in
        let res =
          Ic_runtime.Replay.run ~max_bins:total engine
            (fresh_feed ~telemetry:(Ic_runtime.Engine.telemetry engine) ())
        in
        (engine, res.Ic_runtime.Replay.estimates)
  in
  Printf.printf "processed %d bins; final prior rung: %s\n"
    (Array.length estimates)
    (Ic_runtime.Degrade.level_name (Ic_runtime.Engine.level engine));
  let transitions = Ic_runtime.Engine.transitions engine in
  Printf.printf "degradation transitions (%d):\n" (List.length transitions);
  List.iter
    (fun (tr : Ic_runtime.Degrade.transition) ->
      Printf.printf "  bin %5d  %s -> %s  (%s)\n" tr.bin
        (Ic_runtime.Degrade.level_name tr.from_)
        (Ic_runtime.Degrade.level_name tr.to_)
        (Ic_runtime.Degrade.reason_name tr.reason))
    transitions;
  let telemetry = Ic_runtime.Engine.telemetry engine in
  print_string
    (if full_telemetry then
       Ic_obs.Metrics.expose (Ic_runtime.Telemetry.registry telemetry)
     else Ic_runtime.Telemetry.dump telemetry);
  export_trace tracer trace
  end

(* --- metrics ------------------------------------------------------------- *)

(* Prometheus-style exposition of a short replay's telemetry. The sink gets
   a fake clock that advances 1 ms per reading, so every histogram — not
   just the counters — is a pure function of the observation stream and the
   output can be pinned byte-for-byte in the cram suite. *)
let run_metrics which weeks seed bins drop_rate corrupt_rate noise estimator
    serve_queries =
  check_estimator estimator;
  let ds = load_dataset which weeks seed in
  let series = ds.Ic_datasets.Dataset.series in
  let routing = Ic_topology.Routing.build ds.Ic_datasets.Dataset.graph in
  let config =
    {
      (Ic_runtime.Engine.default_config routing
         series.Ic_traffic.Series.binning)
      with
      Ic_runtime.Engine.estimator;
    }
  in
  let tick = ref 0. in
  let clock () =
    tick := !tick +. 0.001;
    !tick
  in
  let telemetry = Ic_runtime.Telemetry.create ~clock () in
  let engine = Ic_runtime.Engine.create ~telemetry config in
  let feed =
    Ic_runtime.Feed.create ~noise_sigma:noise ~drop_rate ~corrupt_rate
      ~telemetry routing series
      ~seed:(Option.value ~default:7 seed)
  in
  let total =
    let len = Ic_traffic.Series.length series in
    match bins with Some b -> min b len | None -> len
  in
  let res = Ic_runtime.Replay.run ~max_bins:total engine feed in
  (* The serving plane shares the engine's registry, so --serve-queries
     makes one exposition show both planes; the handler gets the same
     deterministic clock, so the request-duration histogram is as pinnable
     as the engine's stage timings. *)
  if serve_queries > 0 then begin
    let source = Ic_serve.Source.create routing in
    let bins_run = Array.length res.Ic_runtime.Replay.estimates in
    if bins_run > 0 then
      Ic_serve.Source.publish source ~bin:(bins_run - 1)
        ~level:
          (Ic_runtime.Degrade.rank
             res.Ic_runtime.Replay.levels.(bins_run - 1))
        res.Ic_runtime.Replay.estimates.(bins_run - 1);
    let handler =
      Ic_serve.Handler.create ~clock
        ~registry:(Ic_runtime.Telemetry.registry telemetry)
        [ (which, source) ]
    in
    let n = Ic_traffic.Series.size series in
    for k = 0 to serve_queries - 1 do
      let req =
        match k mod 5 with
        | 0 -> Ic_serve.Wire.Ping (Int64.of_int k)
        | 1 -> Ic_serve.Wire.Latest_tm { tenant = "" }
        | 2 ->
            Ic_serve.Wire.Od_flow
              { tenant = ""; src = k mod n; dst = (k + 1) mod n }
        | 3 -> Ic_serve.Wire.Topology { tenant = "" }
        | _ -> Ic_serve.Wire.Whatif { tenant = ""; scale = 1.5 }
      in
      ignore (Ic_serve.Handler.handle handler req)
    done
  end;
  print_string
    (Ic_obs.Metrics.expose (Ic_runtime.Telemetry.registry telemetry))

(* --- shootout ------------------------------------------------------------ *)

let run_shootout datasets estimators folds seed stride timing =
  let split s =
    String.split_on_char ',' s |> List.filter (fun x -> x <> "")
  in
  let datasets =
    match split datasets with
    | [] -> Ic_experiments.Shootout.dataset_names
    | ds -> ds
  in
  List.iter
    (fun d ->
      if not (List.mem d Ic_experiments.Shootout.dataset_names) then begin
        Printf.eprintf "unknown dataset %s\navailable: %s\n" d
          (String.concat ", " Ic_experiments.Shootout.dataset_names);
        exit 1
      end)
    datasets;
  let estimators =
    match estimators with
    | None -> None
    | Some s ->
        let names = split s in
        List.iter check_estimator names;
        Some names
  in
  let rows =
    Ic_experiments.Shootout.run ?estimators ~folds ~seed ~stride ~timing
      ~datasets ()
  in
  Ic_experiments.Shootout.render ~folds ~seed ~stride ~timing rows

(* --- scenario ------------------------------------------------------------ *)

let split_once c s =
  match String.index_opt s c with
  | None -> (s, None)
  | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

(* TARGET@AT[+DUR][*X] — the shared grammar of every scenario event flag;
   [None] when the spec does not match it. *)
type event_spec = {
  target : string;
  at : int;
  dur : int option;
  x : float option;
}

let parse_event_spec s =
  match split_once '@' s with
  | _, None -> None
  | target, Some rest -> (
      let rest, x = split_once '*' rest in
      let at, dur = split_once '+' rest in
      let opt parse = function
        | None -> Some None
        | Some v -> Option.map Option.some (parse v)
      in
      match
        (int_of_string_opt at, opt int_of_string_opt dur,
         opt float_of_string_opt x)
      with
      | Some at, Some dur, Some x -> Some { target; at; dur; x }
      | _ -> None)

let parse_link target =
  match split_once '-' target with
  | a, Some b when a <> "" && b <> "" -> Some (a, b)
  | _ -> None

(* One event maker per flag: the parts of the grammar that flag takes. *)
let fail_event { target; at; dur; x } =
  match (parse_link target, x) with
  | Some (a, b), None ->
      Some (Ic_scenario.Schedule.Link_fail { a; b; at; duration = dur })
  | _ -> None

let reweight_event { target; at; dur; x } =
  match (parse_link target, dur, x) with
  | Some (a, b), None, Some weight ->
      Some (Ic_scenario.Schedule.Reweight { a; b; at; weight })
  | _ -> None

let ddos_event { target; at; dur; x } =
  Option.map
    (fun duration ->
      Ic_scenario.Schedule.Ddos
        { victim = target; at; duration;
          magnitude = Option.value ~default:12. x })
    dur

let flash_event { target; at; dur; x } =
  Option.map
    (fun duration ->
      Ic_scenario.Schedule.Flash_crowd
        { node = target; at; duration; boost = Option.value ~default:3. x })
    dur

let outage_event { target; at; dur; x } =
  match (dur, x) with
  | Some duration, None ->
      Some (Ic_scenario.Schedule.Outage { node = target; at; duration })
  | _ -> None

(* The event flags checked against the topology and the run length — what
   Timeline.compile would otherwise reject only after generating the base
   traffic: unknown names, [Schedule.validate], and failure sets that
   disconnect the topology. *)
let scenario_events topology bins fails reweights ddoses flashes outages =
  let events = List.concat [ fails; reweights; ddoses; flashes; outages ] in
  let graph = build_topology topology in
  let node = Ic_topology.Graph.index_of_name graph in
  let linked a b =
    match (node a, node b) with
    | Some u, Some v ->
        Ic_topology.Graph.find_edge graph ~src:u ~dst:v <> None
        || Ic_topology.Graph.find_edge graph ~src:v ~dst:u <> None
    | _ -> false
  in
  let unknown = function
    | Ic_scenario.Schedule.Link_fail { a; b; _ } | Reweight { a; b; _ } ->
        if linked a b then None else Some (Printf.sprintf "no link %s-%s" a b)
    | Ddos { victim = p; _ }
    | Flash_crowd { node = p; _ }
    | Outage { node = p; _ } ->
        if node p <> None then None else Some ("unknown PoP " ^ p)
  in
  let problem =
    match List.find_map unknown events with
    | Some msg -> Some (Printf.sprintf "%s in topology %s" msg topology)
    | None -> (
        match
          Ic_scenario.Timeline.epochs ~graph ~bins { seed = 0; events }
        with
        | _ -> None
        | exception Invalid_argument msg -> Some msg)
  in
  match problem with Some msg -> `Error (true, msg) | None -> `Ok events

(* Default schedule: fail the first non-bridge link for a quarter of the
   run, DDoS one PoP, flash-crowd another — so a bare `ic-lab scenario`
   exercises a route recomputation, an attack and a demand surge. *)
let default_events graph bins =
  let base = Ic_topology.Routing.build ~with_marginals:false graph in
  let link_ids (e : Ic_topology.Graph.edge) =
    List.filter_map
      (fun (s, d) ->
        Option.map
          (fun (x : Ic_topology.Graph.edge) -> x.id)
          (Ic_topology.Graph.find_edge graph ~src:s ~dst:d))
      [ (e.src, e.dst); (e.dst, e.src) ]
  in
  let rec first_safe = function
    | [] -> invalid_arg "scenario: every link is a bridge; pass --fail"
    | (e : Ic_topology.Graph.edge) :: rest -> (
        match Ic_topology.Routing.rebuild ~down:(link_ids e) base with
        | _ -> e
        | exception Invalid_argument _ -> first_safe rest)
  in
  let e = first_safe (Ic_topology.Graph.edges graph) in
  let name i = Ic_topology.Graph.name graph i in
  let n = Ic_topology.Graph.node_count graph in
  let q = max 1 (bins / 4) in
  let burst = max 1 (bins / 8) in
  [
    Ic_scenario.Schedule.Link_fail
      { a = name e.src; b = name e.dst; at = q; duration = Some q };
    Ic_scenario.Schedule.Ddos
      { victim = name (n / 2); at = bins / 2; duration = burst;
        magnitude = 12. };
    Ic_scenario.Schedule.Flash_crowd
      { node = name (min 1 (n - 1)); at = 3 * bins / 4; duration = burst;
        boost = 3. };
  ]

let run_scenario topology family bins seed noise drop_rate corrupt_rate events
    threshold headroom refit_every window recover_after kill_after resume
    checkpoint_path robust_scale self_heal breaker verbose =
  setup_logs verbose;
  let graph = build_topology topology in
  let seed_v = Option.value ~default:7 seed in
  let spec =
    {
      Ic_core.Tm_family.default_spec with
      Ic_core.Tm_family.nodes = Ic_topology.Graph.node_count graph;
      bins;
    }
  in
  let base =
    Ic_core.Tm_family.generate family spec (Ic_prng.Rng.create seed_v)
  in
  let events = if events = [] then default_events graph bins else events in
  let schedule = { Ic_scenario.Schedule.seed = seed_v; events } in
  let tl = Ic_scenario.Timeline.compile ~graph ~base schedule in
  let total = Ic_scenario.Timeline.bins tl in
  let config =
    (* A scenario is a day, not a multi-week dataset: refit early so the
       ladder sits above the closed form when the first event hits. *)
    let c =
      Ic_runtime.Engine.default_config
        (Ic_scenario.Timeline.base_routing tl)
        spec.Ic_core.Tm_family.binning
    in
    let c = { c with Ic_runtime.Engine.refit_every; window; recover_after } in
    if not self_heal then c
    else
      {
        c with
        Ic_runtime.Engine.gate_refits = true;
        epoch_refit = Some (max 1 (refit_every / 2));
      }
  in
  let breaker_cfg =
    Option.map
      (fun k -> { Ic_runtime.Feed.default_breaker with open_after = k })
      breaker
  in
  let scale =
    if robust_scale then Some Ic_core.Anomaly.robust_scale else None
  in
  Printf.printf
    "scenario %s/%s: %d bins x %d nodes, seed %d (drop %.1f%%, corrupt \
     %.1f%%, noise %.1f%%)\n"
    topology
    (Ic_core.Tm_family.name family)
    total
    (Ic_topology.Graph.node_count graph)
    seed_v (100. *. drop_rate) (100. *. corrupt_rate) (100. *. noise);
  let sorted = Ic_scenario.Schedule.sorted schedule in
  Printf.printf "schedule (%d events):\n" (List.length sorted);
  List.iter
    (fun e ->
      Printf.printf "  bin %5d  %s\n"
        (Ic_scenario.Schedule.event_bin e)
        (Ic_scenario.Schedule.describe e))
    sorted;
  let mk_feed engine =
    Ic_scenario.Runner.feed ~noise_sigma:noise ~drop_rate ~corrupt_rate
      ~telemetry:(Ic_runtime.Engine.telemetry engine) ?breaker:breaker_cfg tl
      ~seed:seed_v
  in
  if self_heal then
    Printf.printf
      "self-heal: refit gating on (threshold %g, quarantine limit %d), \
       epoch refit after %d bins\n"
      config.Ic_runtime.Engine.gate_threshold
      config.Ic_runtime.Engine.quarantine_limit
      (Option.value ~default:0 config.Ic_runtime.Engine.epoch_refit);
  (match breaker_cfg with
  | Some b ->
      Printf.printf
        "feed breaker: open after %d faulted bins, cooldown %d, fault \
         fraction %.2f\n"
        b.Ic_runtime.Feed.open_after b.Ic_runtime.Feed.cooldown
        b.Ic_runtime.Feed.fault_frac
  | None -> ());
  let run_full () =
    let engine = Ic_runtime.Engine.create config in
    let seg = Ic_scenario.Runner.play engine (mk_feed engine) tl in
    (engine, seg)
  in
  let engine, segment =
    match kill_after with
    | Some k ->
        let engine0 = Ic_runtime.Engine.create config in
        let head =
          Ic_scenario.Runner.play ~upto:k engine0 (mk_feed engine0) tl
        in
        Ic_runtime.Checkpoint.save ~path:checkpoint_path engine0;
        Printf.printf "killed after %d bins; checkpoint written to %s\n" k
          checkpoint_path;
        if not resume then (engine0, head)
        else begin
          match
            Ic_runtime.Checkpoint.load ~path:checkpoint_path ~config
          with
          | Error e ->
              prerr_endline e;
              exit 1
          | Ok engine1 ->
              let feed = mk_feed engine1 in
              Ic_runtime.Feed.skip feed k;
              Ic_scenario.Runner.resume_routing engine1 tl;
              let tail = Ic_scenario.Runner.play engine1 feed tl in
              Printf.printf "resumed from bin %d, processed %d more bins\n" k
                (Array.length tail.Ic_scenario.Runner.estimates);
              let combined =
                {
                  Ic_scenario.Runner.estimates =
                    Array.append head.estimates tail.estimates;
                  levels = Array.append head.levels tail.levels;
                  clamped = head.clamped + tail.clamped;
                  applied = head.applied @ tail.applied;
                }
              in
              let _, shadow = run_full () in
              let identical =
                Ic_runtime.Replay.bit_identical combined.estimates
                  shadow.Ic_scenario.Runner.estimates
              in
              Printf.printf
                "resume check: estimates bit-identical to uninterrupted \
                 run: %s\n"
                (if identical then "yes" else "NO");
              if not identical then exit 1;
              (engine1, combined)
        end
    | None -> run_full ()
  in
  Printf.printf "processed %d bins; final prior rung: %s\n"
    (Array.length segment.Ic_scenario.Runner.estimates)
    (Ic_runtime.Degrade.level_name (Ic_runtime.Engine.level engine));
  Printf.printf "topology timeline (%d boundary events applied live):\n"
    (List.length segment.applied);
  List.iter
    (fun (b, note) -> Printf.printf "  bin %5d  %s\n" b note)
    tl.Ic_scenario.Timeline.topo_notes;
  let transitions = Ic_runtime.Engine.transitions engine in
  Printf.printf "degradation transitions (%d):\n" (List.length transitions);
  List.iter
    (fun (tr : Ic_runtime.Degrade.transition) ->
      Printf.printf "  bin %5d  %s -> %s  (%s)\n" tr.bin
        (Ic_runtime.Degrade.level_name tr.from_)
        (Ic_runtime.Degrade.level_name tr.to_)
        (Ic_runtime.Degrade.reason_name tr.reason))
    transitions;
  if Array.length segment.Ic_scenario.Runner.estimates = total then begin
    let v =
      Ic_scenario.Runner.evaluate ~threshold ?scale ~headroom tl
        ~estimates:segment.Ic_scenario.Runner.estimates
    in
    let s = v.Ic_scenario.Runner.score in
    let ev = s.Ic_scenario.Score.evaluation in
    Printf.printf "anomaly scoring (threshold %g, floor %.3g bytes):\n"
      s.Ic_scenario.Score.threshold s.Ic_scenario.Score.min_bytes;
    (match scale with
    | Some (Ic_core.Anomaly.Rolling_quantile { window; q }) ->
        Printf.printf "  scale: rolling-quantile (window %d, q %.2f)\n"
          window q
    | _ -> ());
    Printf.printf
      "  detections %d (tp %d, fp %d, fn %d): precision %.3f, recall %.3f\n"
      (List.length s.Ic_scenario.Score.detections)
      ev.Ic_core.Anomaly.true_positives ev.Ic_core.Anomaly.false_positives
      ev.Ic_core.Anomaly.false_negatives ev.Ic_core.Anomaly.precision
      ev.Ic_core.Anomaly.recall;
    List.iter
      (fun (es : Ic_scenario.Score.event_score) ->
        match (es.detected_at, es.time_to_detect) with
        | Some b, Some ttd ->
            Printf.printf "  %s %s: detected at bin %d (ttd %d)\n" es.kind
              es.target b ttd
        | _ -> Printf.printf "  %s %s: missed\n" es.kind es.target)
      s.Ic_scenario.Score.events;
    let p = v.Ic_scenario.Runner.provision in
    Printf.printf "what-if provisioning (headroom %.2f, %d links):\n"
      p.Ic_scenario.Provision.headroom p.Ic_scenario.Provision.edge_count;
    Printf.printf
      "  max utilization: truth-planned %.3f, estimate-planned %.3f\n"
      p.Ic_scenario.Provision.max_util_true
      p.Ic_scenario.Provision.max_util_est;
    Printf.printf "  regret %+.3f (worst link %s), underprovisioned: %d\n"
      p.Ic_scenario.Provision.regret p.Ic_scenario.Provision.worst_link
      p.Ic_scenario.Provision.underprovisioned
  end
  else
    Printf.printf "partial run (%d of %d bins): verdict skipped (add \
                   --resume to finish)\n"
      (Array.length segment.Ic_scenario.Runner.estimates)
      total;
  print_string
    (Ic_runtime.Telemetry.dump (Ic_runtime.Engine.telemetry engine))

(* --- serve ---------------------------------------------------------------- *)

(* Estimation-as-a-service: replay [bins] through the engine with a
   deterministic bin clock — publishing each bin's estimate to the serving
   source as it lands — then open the socket and answer queries until
   [stop_after] requests are served or a signal arrives. The replay runs
   to completion before the first accept, so every query against a given
   (dataset, seed, bins) triple sees the same estimate: the property the
   cram suite pins. *)
let run_serve which weeks seed bins socket port workers queue_cap max_inflight
    stop_after read_timeout kill_after resume checkpoint_path trace verbose =
  setup_logs verbose;
  let tracer = make_tracer trace in
  let ds = load_dataset which weeks seed in
  let series = ds.Ic_datasets.Dataset.series in
  let routing = Ic_topology.Routing.build ds.Ic_datasets.Dataset.graph in
  let config =
    Ic_runtime.Engine.default_config routing series.Ic_traffic.Series.binning
  in
  let feed_seed = Option.value ~default:7 seed in
  let fresh_feed () = Ic_runtime.Feed.create routing series ~seed:feed_seed in
  let total =
    let len = Ic_traffic.Series.length series in
    match bins with Some b -> min b len | None -> len
  in
  let registry = Ic_obs.Metrics.create () in
  let telemetry = Ic_runtime.Telemetry.create ~registry () in
  let source = Ic_serve.Source.create routing in
  let publish ~bin (out : Ic_runtime.Engine.output) =
    Ic_serve.Source.publish source ~bin
      ~level:(Ic_runtime.Degrade.rank out.Ic_runtime.Engine.level)
      out.Ic_runtime.Engine.estimate
  in
  Printf.printf "replaying %s: %d bins x %d nodes\n" which total
    (Ic_traffic.Series.size series);
  let engine =
    match kill_after with
    | Some k ->
        (* Kill/resume under load: checkpoint mid-replay, restore, finish,
           and require the served estimates bit-identical to an
           uninterrupted replay before opening the socket. *)
        let engine0 = Ic_runtime.Engine.create ~telemetry ~tracer config in
        let head =
          Ic_runtime.Replay.run ~max_bins:k ~on_bin:publish engine0
            (fresh_feed ())
        in
        Ic_runtime.Checkpoint.save ~path:checkpoint_path engine0;
        Printf.printf "killed after %d bins; checkpoint written to %s\n" k
          checkpoint_path;
        if not resume then engine0
        else begin
          match Ic_runtime.Checkpoint.load ~path:checkpoint_path ~config with
          | Error e ->
              prerr_endline e;
              exit 1
          | Ok engine1 ->
              let feed = fresh_feed () in
              Ic_runtime.Feed.skip feed k;
              let tail =
                Ic_runtime.Replay.run ~max_bins:(total - k) ~on_bin:publish
                  engine1 feed
              in
              let shadow =
                let e = Ic_runtime.Engine.create config in
                Ic_runtime.Replay.run ~max_bins:total e (fresh_feed ())
              in
              let identical =
                Ic_runtime.Replay.bit_identical
                  (Array.append head.Ic_runtime.Replay.estimates
                     tail.Ic_runtime.Replay.estimates)
                  shadow.Ic_runtime.Replay.estimates
              in
              Printf.printf
                "resume check: served estimates bit-identical to \
                 uninterrupted run: %s\n"
                (if identical then "yes" else "NO");
              if not identical then exit 1;
              engine1
        end
    | None ->
        let engine = Ic_runtime.Engine.create ~telemetry ~tracer config in
        ignore
          (Ic_runtime.Replay.run ~max_bins:total ~on_bin:publish engine
             (fresh_feed ()));
        engine
  in
  (match Ic_serve.Source.latest source with
  | Some p ->
      Printf.printf "published bin %d at rung %s\n" p.Ic_serve.Source.bin
        (Ic_runtime.Degrade.level_name
           (Ic_runtime.Degrade.level_of_rank p.Ic_serve.Source.level))
  | None -> print_endline "no bins replayed; serving without an estimate");
  let handler =
    Ic_serve.Handler.create ~tracer ~registry [ (which, source) ]
  in
  let listen =
    match socket with
    | Some path -> Ic_serve.Server.Unix_path path
    | None -> Ic_serve.Server.Tcp ("127.0.0.1", port)
  in
  let server_config =
    {
      (Ic_serve.Server.default_config listen) with
      Ic_serve.Server.workers;
      queue_cap;
      max_inflight;
      read_timeout;
      stop_after;
    }
  in
  let on_drain () =
    match checkpoint_path with
    | "" -> ()
    | path ->
        Ic_runtime.Checkpoint.save ~path engine;
        Printf.printf "checkpoint flushed to %s\n" path
  in
  let server = Ic_serve.Server.start ~on_drain server_config handler in
  (match listen with
  | Ic_serve.Server.Unix_path path ->
      Printf.printf "serving on unix:%s (%d workers)\n%!" path workers
  | Ic_serve.Server.Tcp (host, _) ->
      let port =
        match Ic_serve.Server.address server with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> 0
      in
      Printf.printf "serving on %s:%d (%d workers)\n%!" host port workers);
  let stop _ = Ic_serve.Server.stop server in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Ic_serve.Server.wait server;
  Printf.printf "drained after %d answered requests\n"
    (Ic_serve.Server.answered server);
  print_endline "serve counters:";
  List.iter
    (fun (name, v) ->
      if String.length name >= 6 && String.sub name 0 6 = "serve." then
        Printf.printf "  %-24s %d\n" name v)
    (Ic_serve.Handler.counters handler);
  export_trace tracer trace

(* --- loadgen -------------------------------------------------------------- *)

let run_loadgen socket host port queries rate connections seed json paced
    timings =
  let listen =
    match socket with
    | Some path -> Ic_serve.Server.Unix_path path
    | None -> Ic_serve.Server.Tcp (host, port)
  in
  let config =
    {
      (Ic_serve.Loadgen.default_config listen) with
      Ic_serve.Loadgen.queries;
      rate;
      connections;
      seed;
      json;
      paced;
    }
  in
  let outcome =
    try Ic_serve.Loadgen.run config
    with Unix.Unix_error (e, _, _) ->
      let target =
        match listen with
        | Ic_serve.Server.Unix_path path -> "unix:" ^ path
        | Ic_serve.Server.Tcp (host, port) -> Printf.sprintf "%s:%d" host port
      in
      Printf.eprintf "loadgen: cannot reach %s: %s\n" target
        (Unix.error_message e);
      exit 1
  in
  print_string (Ic_serve.Loadgen.report ~timings outcome);
  if outcome.Ic_serve.Loadgen.transport_failures > 0 then exit 1

(* --- topology ------------------------------------------------------------ *)

let run_topology name out =
  let graph = build_topology name in
  (match out with
  | Some path ->
      Ic_topology.Topo_io.save path graph;
      Printf.printf "wrote %s to %s\n" name path
  | None ->
      Printf.printf "%d nodes, %d directed links\n"
        (Ic_topology.Graph.node_count graph)
        (Ic_topology.Graph.edge_count graph);
      List.iter
        (fun (e : Ic_topology.Graph.edge) ->
          if e.src < e.dst then
            Printf.printf "  %s -- %s (weight %g)\n"
              (Ic_topology.Graph.name graph e.src)
              (Ic_topology.Graph.name graph e.dst)
              e.weight)
        (Ic_topology.Graph.edges graph))

(* --- cmdliner glue ------------------------------------------------------ *)

open Cmdliner

(* An enum over the names of one of the association lists above; the value
   is the name itself, kept for messages. *)
let names_of choices =
  Arg.enum (List.map (fun (name, _) -> (name, name)) choices)

(* Count flags: a value outside [least .. most] is a usage error before any
   work starts. *)
let int_in least most =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least && n <= most -> Ok n
    | _ ->
        Error
          (`Msg
             (if most = max_int then
                Printf.sprintf "invalid value '%s', expected an integer >= %d"
                  s least
              else
                Printf.sprintf
                  "invalid value '%s', expected an integer in %d..%d" s least
                  most))
  in
  Arg.conv (parse, Format.pp_print_int)

let int_at_least least = int_in least max_int

let pos_int = int_at_least 1

(* --kill-after K stops a run of [bins] bins after K of them, so K must lie
   below [bins]; --resume finishes a killed run, so it needs --kill-after.
   [what bins] names the run's bins in the message. *)
let check_kill_after ~bins ~what kill_after resume =
  match kill_after with
  | None when resume -> `Error (true, "--resume needs --kill-after")
  | Some k when k >= bins ->
      `Error
        (true, Printf.sprintf "--kill-after %d must be below %s" k (what bins))
  | _ -> `Ok kill_after

(* Float flags: a value outside the flag's range — NaN and the infinities
   included — is a usage error before any work starts. *)
let float_in expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, Format.pp_print_float)

let probability =
  float_in "a probability in [0, 1)" (fun p -> p >= 0. && p < 1.)

let sigma =
  float_in "a finite number >= 0" (fun x -> x >= 0. && Float.is_finite x)

(* Rates, durations, thresholds and factors. *)
let positive =
  float_in "a finite number > 0" (fun x -> x > 0. && Float.is_finite x)

(* The poll-fault flags of every replaying verb: drop and corruption
   probabilities and the multiplicative noise sigma. *)
let drop_rate_arg =
  let doc = "Probability a link poll is lost per bin." in
  Arg.(value & opt probability 0. & info [ "drop-rate" ] ~docv:"P" ~doc)

let corrupt_rate_arg =
  let doc = "Probability a surviving poll is corrupted per bin." in
  Arg.(value & opt probability 0. & info [ "corrupt-rate" ] ~docv:"P" ~doc)

let noise_arg =
  let doc = "SNMP multiplicative noise sigma." in
  Arg.(value & opt sigma 0.01 & info [ "noise" ] ~docv:"SIGMA" ~doc)

(* A repeatable scenario event flag, parsed by its maker: a spec the maker
   rejects is a usage error naming the flag's grammar. *)
let event_flag name grammar make ~doc =
  let parse s =
    match Option.bind (parse_event_spec s) make with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s grammar))
  in
  let print ppf e =
    Format.pp_print_string ppf (Ic_scenario.Schedule.describe e)
  in
  Arg.(
    value & opt_all (conv (parse, print)) [] & info [ name ] ~docv:grammar ~doc)

let stride_arg =
  let doc = "Keep every STRIDE-th time bin (1 = full resolution)." in
  Arg.(value & opt pos_int 1 & info [ "stride" ] ~docv:"STRIDE" ~doc)

let weeks_arg =
  let doc = "Number of weeks to generate (dataset default if omitted)." in
  Arg.(value & opt (some pos_int) None & info [ "weeks" ] ~docv:"WEEKS" ~doc)

let seed_arg =
  let doc = "Generator seed (dataset default if omitted)." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let dataset_arg =
  let doc = "Dataset: geant or totem." in
  Arg.(
    value
    & opt (names_of datasets) "geant"
    & info [ "dataset"; "d" ] ~docv:"NAME" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the estimation hot paths (1 = sequential). Results \
     are bit-identical at every value; only wall-clock changes."
  in
  Arg.(value & opt pos_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let engine_estimator_arg =
  let doc =
    "Estimator family driving every bin ('ic' is the native self-calibrating \
     path; anything else dispatches through the estimator registry — see \
     'ic-lab shootout' for the roster)."
  in
  Arg.(value & opt string "ic" & info [ "estimator" ] ~docv:"NAME" ~doc)

let trace_out_arg =
  let doc =
    "Record execution spans (engine/pipeline stages, pool regions) and \
     write them as JSON Lines to FILE. Tracing only observes: results are \
     bit-identical with or without it."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let experiment_cmd =
  let ids =
    let doc = "Experiment ids (or 'all')." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let out_dir =
    let doc = "Directory for CSV series output." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Verbose logging.")
  in
  let doc = "Regenerate the paper's figures (see DESIGN.md for the index)." in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(const run_experiments $ ids $ stride_arg $ out_dir $ verbose)

let gen_cmd =
  let out =
    let doc = "Output CSV path." in
    Arg.(value & opt string "tm_series.csv" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let doc = "Generate a synthetic TM dataset and write it as CSV." in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run_gen $ dataset_arg $ weeks_arg $ seed_arg $ out)

let fit_cmd =
  let week =
    let doc = "Week to fit (0-based)." in
    Arg.(value & opt int 0 & info [ "week" ] ~docv:"WEEK" ~doc)
  in
  let input =
    let doc =
      "Fit a TM series from a CSV file (bin,origin,destination,bytes — the \
       format written by 'gen') instead of a built-in dataset."
    in
    Arg.(value & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE" ~doc)
  in
  let nodes =
    let doc = "Node count of the CSV series (required with --input)." in
    Arg.(value & opt (some pos_int) None & info [ "nodes" ] ~docv:"N" ~doc)
  in
  let source =
    let check which weeks week input nodes =
      match (input, nodes) with
      | Some _, None -> `Error (true, "--input needs --nodes")
      | Some path, Some n -> `Ok (`Csv (path, n))
      | None, _ -> (
          match week_error which weeks ~flag:"--week" week with
          | Some msg -> `Error (true, msg)
          | None -> `Ok (`Week week))
    in
    Term.(ret (const check $ dataset_arg $ weeks_arg $ week $ input $ nodes))
  in
  let bin_minutes =
    let doc = "Bin width of the CSV series in minutes." in
    Arg.(value & opt pos_int 5 & info [ "bin-minutes" ] ~docv:"MIN" ~doc)
  in
  let doc = "Fit the stable-fP IC model and print parameters." in
  Cmd.v (Cmd.info "fit" ~doc)
    Term.(
      const run_fit $ dataset_arg $ weeks_arg $ seed_arg $ source $ stride_arg
      $ bin_minutes)

let estimate_cmd =
  let calib =
    let doc = "Calibration week for the IC priors." in
    Arg.(value & opt int 0 & info [ "calib-week" ] ~docv:"WEEK" ~doc)
  in
  let target =
    let doc = "Week to estimate." in
    Arg.(value & opt int 1 & info [ "week" ] ~docv:"WEEK" ~doc)
  in
  let calib_and_target =
    let check which weeks calib target =
      match
        List.find_map Fun.id
          [
            week_error which weeks ~flag:"--calib-week" calib;
            week_error which weeks ~flag:"--week" target;
          ]
      with
      | Some msg -> `Error (true, msg)
      | None -> `Ok (calib, target)
    in
    Term.(ret (const check $ dataset_arg $ weeks_arg $ calib $ target))
  in
  let prior =
    let doc = "Prior: gravity, measured, stable-fp or stable-f." in
    Arg.(
      value
      & opt (names_of priors) "stable-fp"
      & info [ "prior" ] ~docv:"PRIOR" ~doc)
  in
  let estimator =
    let doc =
      "Estimate with a registered estimator family instead of the --prior \
       pipeline: calibrated on --calib-week, applied to --week through the \
       generic batch driver. Unknown names list the registry."
    in
    Arg.(
      value & opt (some string) None & info [ "estimator" ] ~docv:"NAME" ~doc)
  in
  let doc = "Run the three-step TM estimation pipeline on one week." in
  Cmd.v (Cmd.info "estimate" ~doc)
    Term.(
      const run_estimate $ dataset_arg $ weeks_arg $ seed_arg
      $ calib_and_target $ prior $ estimator $ stride_arg $ jobs_arg
      $ trace_out_arg)

let trace_cmd =
  let duration =
    let doc = "Capture length in seconds." in
    Arg.(value & opt positive 7200. & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let rate =
    let doc = "Connections initiated per 5-minute bin per node pair." in
    Arg.(value & opt positive 220. & info [ "rate" ] ~docv:"CONNS" ~doc)
  in
  let doc =
    "Simulate bidirectional packet traces at IPLS and measure f per bin \
     (the paper's Section 5.2 procedure)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run_trace $ seed_arg $ duration $ rate)

let whatif_cmd =
  let node =
    let doc = "PoP receiving a flash crowd (e.g. gr)." in
    Arg.(value & opt (some string) None & info [ "flash-crowd" ] ~docv:"POP" ~doc)
  in
  let boost =
    let doc = "Preference multiplier for the flash-crowd PoP." in
    Arg.(value & opt positive 10. & info [ "boost" ] ~docv:"FACTOR" ~doc)
  in
  let f_new =
    let doc = "Override the forward fraction (application-mix shift)." in
    let fraction =
      float_in "a fraction in [0, 1]" (fun f -> f >= 0. && f <= 1.)
    in
    Arg.(value & opt (some fraction) None & info [ "set-f" ] ~docv:"F" ~doc)
  in
  let topology =
    let doc = "Topology file (see 'ic-lab topology' for the format)." in
    Arg.(value & opt (some file) None & info [ "topology" ] ~docv:"FILE" ~doc)
  in
  (* The topology and the flash-crowd PoP, resolved before any work. *)
  let target =
    let check topology node =
      let graph =
        match topology with
        | None -> Ok (Ic_topology.Topologies.geant_like ())
        | Some path -> Ic_topology.Topo_io.load path
      in
      match (graph, node) with
      | Error e, _ -> `Error (false, "bad topology file: " ^ e)
      | Ok graph, None -> `Ok (graph, None)
      | Ok graph, Some name -> (
          match Ic_topology.Graph.index_of_name graph name with
          | Some idx -> `Ok (graph, Some idx)
          | None -> `Error (true, "unknown PoP " ^ name))
    in
    Term.(ret (const check $ topology $ node))
  in
  let doc =
    "What-if study on a synthetic day of traffic: flash crowds and \
     application-mix shifts, reported as per-link peak-load deltas."
  in
  Cmd.v (Cmd.info "whatif" ~doc)
    Term.(const run_whatif $ target $ boost $ f_new $ seed_arg)

let stream_cmd =
  let bins =
    let doc = "Stop after BINS bins (full replay if omitted)." in
    Arg.(value & opt (some int) None & info [ "bins" ] ~docv:"BINS" ~doc)
  in
  let kill_after =
    let doc = "Kill the engine after BINS bins and write a checkpoint." in
    Arg.(
      value & opt (some pos_int) None & info [ "kill-after" ] ~docv:"BINS" ~doc)
  in
  let resume =
    let doc =
      "After --kill-after, restore from the checkpoint, replay the rest of \
       the feed, and verify the estimates are bit-identical to an \
       uninterrupted run."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let checkpoint =
    let doc = "Checkpoint file path." in
    Arg.(
      value
      & opt string "ic-engine.ckpt"
      & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let refit_every =
    let doc = "Refit the stable-fP parameters every BINS bins." in
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "refit-every" ] ~docv:"BINS" ~doc)
  in
  let window =
    let doc = "Sliding refit window length in bins." in
    Arg.(value & opt (some pos_int) None & info [ "window" ] ~docv:"BINS" ~doc)
  in
  let recover_after =
    let doc = "Healthy bins required per upward ladder step." in
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "recover-after" ] ~docv:"BINS" ~doc)
  in
  let telemetry =
    let doc =
      "Telemetry detail: counters (the deterministic counter dump) or full \
       (the Prometheus exposition of the engine's registry: counters plus \
       per-stage duration histograms)."
    in
    Arg.(
      value
      & opt (enum [ ("counters", false); ("full", true) ]) false
      & info [ "telemetry" ] ~docv:"MODE" ~doc)
  in
  let shards =
    let doc =
      "Split the replay into N contiguous time ranges and run one \
       independent engine per shard on the worker pool, with merged \
       telemetry and an atomic all-shard checkpoint (with --kill-after, \
       the kill point is per shard)."
    in
    Arg.(value & opt pos_int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let open_loop =
    let doc =
      "Overlay an open-loop connection workload on the SNMP feed: Poisson \
       arrivals at RATE per second, each carrying a flow size from the \
       built-in empirical CDF, binned onto the link loads. Deterministic \
       for a given --seed (the same schedule the loadgen verb uses)."
    in
    Arg.(
      value & opt (some positive) None & info [ "open-loop" ] ~docv:"RATE" ~doc)
  in
  let shards =
    let check which weeks shards bins open_loop =
      let len = dataset_bins which weeks in
      match bins with
      | Some b when b < shards ->
          `Error
            (true, Printf.sprintf "--bins %d cannot fill --shards %d" b shards)
      | _ when shards > len ->
          `Error
            ( true,
              Printf.sprintf "dataset %s's %d bins cannot fill --shards %d"
                which len shards )
      | _ when shards > 1 && open_loop <> None ->
          `Error
            ( true,
              "--open-loop applies to the single-shard path (shard feeds \
               re-bin time from their own origin)" )
      | _ -> `Ok shards
    in
    Term.(
      ret (const check $ dataset_arg $ weeks_arg $ shards $ bins $ open_loop))
  in
  let kill_after =
    let check which weeks bins shards kill_after resume =
      let len = dataset_bins which weeks in
      let total = match bins with Some b -> min b len | None -> len in
      if shards > 1 then
        check_kill_after ~bins:(total / shards)
          ~what:(Printf.sprintf "the %d bins of each shard")
          kill_after resume
      else
        check_kill_after ~bins:total ~what:(Printf.sprintf "the run's %d bins")
          kill_after resume
    in
    Term.(
      ret
        (const check $ dataset_arg $ weeks_arg $ bins $ shards $ kill_after
       $ resume))
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Verbose logging.")
  in
  let doc =
    "Replay a dataset as a live link-load feed through the streaming \
     estimation engine, with injected faults, degradation ladder, \
     checkpoint/resume and telemetry."
  in
  Cmd.v (Cmd.info "stream" ~doc)
    Term.(
      const run_stream $ dataset_arg $ weeks_arg $ seed_arg $ bins
      $ drop_rate_arg $ corrupt_rate_arg $ noise_arg $ open_loop $ kill_after
      $ resume $ checkpoint $ refit_every $ window $ recover_after $ telemetry
      $ engine_estimator_arg $ shards $ jobs_arg $ trace_out_arg $ verbose)

let metrics_cmd =
  let bins =
    let doc = "Replay BINS bins before exposing (full replay if omitted)." in
    Arg.(value & opt (some pos_int) None & info [ "bins" ] ~docv:"BINS" ~doc)
  in
  let serve_queries =
    let doc =
      "After the replay, answer N deterministic serving-plane queries \
       (cycling ping/latest-tm/od-flow/topology/what-if) against the final \
       estimate through a handler sharing the engine's registry, so the \
       exposition shows serve counters and the request-duration histogram \
       next to engine telemetry."
    in
    Arg.(
      value & opt (int_at_least 0) 0 & info [ "serve-queries" ] ~docv:"N" ~doc)
  in
  let doc =
    "Replay a dataset through the streaming engine and print its metrics \
     registry in Prometheus text exposition format (counters and per-stage \
     duration histograms). A deterministic internal clock makes the output \
     a pure function of the observation stream."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const run_metrics $ dataset_arg $ weeks_arg $ seed_arg $ bins
      $ drop_rate_arg $ corrupt_rate_arg $ noise_arg $ engine_estimator_arg
      $ serve_queries)

let shootout_cmd =
  let datasets =
    let doc =
      "Comma-separated datasets to rank on (abilene, geant, totem; empty = \
       all)."
    in
    Arg.(
      value
      & opt string "abilene,geant,totem"
      & info [ "datasets" ] ~docv:"NAMES" ~doc)
  in
  let estimators =
    let doc =
      "Comma-separated estimator names (default: the whole registry)."
    in
    Arg.(
      value & opt (some string) None & info [ "estimators" ] ~docv:"NAMES" ~doc)
  in
  let folds =
    let doc = "Cross-validation folds." in
    Arg.(value & opt (int_at_least 2) 3 & info [ "folds" ] ~docv:"K" ~doc)
  in
  let seed =
    let doc = "Seed for data generation and the train/test split." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let timing =
    let doc =
      "Per-bin latency measurement: on (wall-clock median) or off \
       (deterministic, pinnable output)."
    in
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) true
      & info [ "timing" ] ~docv:"MODE" ~doc)
  in
  let stride =
    let doc = "Keep every STRIDE-th bin of the evaluation week." in
    Arg.(value & opt pos_int 21 & info [ "stride" ] ~docv:"STRIDE" ~doc)
  in
  let doc =
    "Rank every registered estimator by cross-validated error and per-bin \
     latency on the synthetic datasets, and mark the Pareto frontier."
  in
  Cmd.v (Cmd.info "shootout" ~doc)
    Term.(
      const run_shootout $ datasets $ estimators $ folds $ seed $ stride
      $ timing)

let scenario_cmd =
  let topology =
    let doc = "Topology: geant|totem|abilene." in
    Arg.(
      value
      & opt (names_of topologies) "geant"
      & info [ "topology" ] ~docv:"NAME" ~doc)
  in
  let family =
    let doc = "Base TM family: ic|bimodal|uniform-normal|nucci." in
    let families =
      List.map (fun f -> (Ic_core.Tm_family.name f, f)) Ic_core.Tm_family.all
    in
    Arg.(
      value
      & opt (enum families) Ic_core.Tm_family.Ic
      & info [ "family" ] ~docv:"NAME" ~doc)
  in
  let bins =
    let doc = "Scenario length in 5-minute bins." in
    Arg.(value & opt pos_int 96 & info [ "bins" ] ~docv:"BINS" ~doc)
  in
  let fails =
    event_flag "fail" "A-B@AT[+DUR]" fail_event
      ~doc:
        "Fail link A-B at bin AT, restored DUR bins later (permanent if +DUR \
         is omitted). Repeatable."
  in
  let reweights =
    event_flag "reweight" "A-B@AT*W" reweight_event
      ~doc:"Set link A-B's IGP weight to W at bin AT. Repeatable."
  in
  let ddoses =
    event_flag "ddos" "POP@AT+DUR[*MAG]" ddos_event
      ~doc:
        "DDoS PoP from bin AT for DUR bins; each attacker adds MAG x the \
         mean OD volume (default 12). Repeatable."
  in
  let flashes =
    event_flag "flash" "POP@AT+DUR[*BOOST]" flash_event
      ~doc:
        "Flash crowd toward PoP from bin AT for DUR bins, demand x BOOST \
         (default 3). Repeatable."
  in
  let outages =
    event_flag "outage" "POP@AT+DUR" outage_event
      ~doc:
        "PoP outage from bin AT for DUR bins (traffic collapses to 2%; \
         unlabeled — the excess detector must not flag it). Repeatable."
  in
  let threshold =
    let doc = "Anomaly detector score threshold." in
    Arg.(value & opt positive 5. & info [ "threshold" ] ~docv:"T" ~doc)
  in
  let headroom =
    let doc = "Target peak utilization for what-if link provisioning." in
    let headroom =
      float_in "a number in (0, 1]" (fun h -> h > 0. && h <= 1.)
    in
    Arg.(value & opt headroom 0.7 & info [ "headroom" ] ~docv:"H" ~doc)
  in
  let refit_every =
    let doc = "Refit the stable-fP parameters every BINS bins." in
    Arg.(value & opt pos_int 8 & info [ "refit-every" ] ~docv:"BINS" ~doc)
  in
  let window =
    let doc = "Sliding refit window length in bins." in
    Arg.(value & opt pos_int 32 & info [ "window" ] ~docv:"BINS" ~doc)
  in
  let recover_after =
    let doc = "Healthy bins required per upward ladder step." in
    Arg.(value & opt pos_int 4 & info [ "recover-after" ] ~docv:"BINS" ~doc)
  in
  let kill_after =
    let doc =
      "Kill the engine after BINS bins (mid-scenario) and write a \
       checkpoint."
    in
    Arg.(
      value & opt (some pos_int) None & info [ "kill-after" ] ~docv:"BINS" ~doc)
  in
  let resume =
    let doc =
      "After --kill-after, restore from the checkpoint, re-install the \
       scenario's live routing epoch, finish the timeline, and verify the \
       estimates are bit-identical to an uninterrupted run."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let checkpoint =
    let doc = "Checkpoint file path." in
    Arg.(
      value
      & opt string "ic-scenario.ckpt"
      & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let robust_scale =
    let doc =
      "Score with the mismatch-robust rolling-quantile studentization \
       instead of the historical MAD — recovers detection when the base \
       traffic violates the IC mean structure (e.g. --family bimodal)."
    in
    Arg.(value & flag & info [ "robust-scale" ] ~doc)
  in
  let self_heal =
    let doc =
      "Enable the engine's self-healing knobs: anomaly-gated refits \
       (flagged bins quarantined out of the stable-fP window, bounded by \
       the forced-refit escape hatch) and an early post-topology-change \
       refit at half the refit cadence."
    in
    Arg.(value & flag & info [ "self-heal" ] ~doc)
  in
  let breaker =
    let doc =
      "Put a circuit breaker on the feed: open after K consecutive \
       mostly-faulted bins, carry the last clean values while open, \
       half-open probe after the cooldown."
    in
    Arg.(value & opt (some pos_int) None & info [ "breaker" ] ~docv:"K" ~doc)
  in
  let events =
    Term.(
      ret
        (const scenario_events $ topology $ bins $ fails $ reweights $ ddoses
       $ flashes $ outages))
  in
  let kill_after =
    let check bins kill_after resume =
      check_kill_after ~bins ~what:(Printf.sprintf "the scenario's %d bins")
        kill_after resume
    in
    Term.(ret (const check $ bins $ kill_after $ resume))
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Verbose logging.")
  in
  let doc =
    "Run a composable failure/anomaly/what-if scenario: a seeded schedule \
     of link failures, routing churn, DDoS, flash crowds and outages is \
     compiled into an adversarial timeline and replayed through the \
     streaming engine; the verdict reports detection precision/recall and \
     time-to-detect, capacity-planning regret, degradation transitions and \
     telemetry — all deterministic for a given seed."
  in
  Cmd.v (Cmd.info "scenario" ~doc)
    Term.(
      const run_scenario $ topology $ family $ bins $ seed_arg $ noise_arg
      $ drop_rate_arg $ corrupt_rate_arg $ events $ threshold $ headroom $ refit_every
      $ window $ recover_after $ kill_after $ resume $ checkpoint
      $ robust_scale $ self_heal $ breaker $ verbose)

let socket_arg =
  let doc = "Unix-domain socket path (preferred for local serving)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let bins =
    let doc =
      "Replay BINS bins before serving (full replay if omitted); 0 serves \
       without an estimate."
    in
    Arg.(
      value
      & opt (some (int_at_least 0)) None
      & info [ "bins" ] ~docv:"BINS" ~doc)
  in
  let port =
    let doc = "TCP port on 127.0.0.1 when no --socket is given (0 = ephemeral)." in
    Arg.(value & opt (int_in 0 65535) 4317 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let workers =
    let doc = "Worker domains serving connections." in
    Arg.(value & opt pos_int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_cap =
    let doc =
      "Accepted connections allowed to wait for a worker; beyond it new \
       connections are shed with an explicit frame."
    in
    Arg.(value & opt pos_int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let max_inflight =
    let doc =
      "Requests processed concurrently across workers; beyond it requests \
       are shed with an explicit frame."
    in
    Arg.(
      value & opt (int_at_least 0) 64 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let stop_after =
    let doc =
      "Drain and exit after N answered requests (run until SIGINT/SIGTERM \
       if omitted) — the deterministic shutdown tests rely on."
    in
    Arg.(value & opt (some pos_int) None & info [ "stop-after" ] ~docv:"N" ~doc)
  in
  let read_timeout =
    let doc = "Per-connection read timeout in seconds." in
    Arg.(
      value & opt positive 5. & info [ "read-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let kill_after =
    let doc =
      "Kill the replay after BINS bins and write a checkpoint before \
       serving (with --resume: restore, finish, verify bit-identity)."
    in
    Arg.(
      value & opt (some pos_int) None & info [ "kill-after" ] ~docv:"BINS" ~doc)
  in
  let resume =
    let doc =
      "After --kill-after, restore from the checkpoint, finish the replay, \
       and verify the published estimates are bit-identical to an \
       uninterrupted run before opening the socket."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let kill_after =
    let check which weeks bins kill_after resume =
      let len = dataset_bins which weeks in
      let total = match bins with Some b -> min b len | None -> len in
      check_kill_after ~bins:total ~what:(Printf.sprintf "the replay's %d bins")
        kill_after resume
    in
    Term.(
      ret (const check $ dataset_arg $ weeks_arg $ bins $ kill_after $ resume))
  in
  let checkpoint =
    let doc =
      "Checkpoint file: written by --kill-after and flushed again on \
       graceful drain (empty string disables the drain flush)."
    in
    Arg.(
      value
      & opt string "ic-engine.ckpt"
      & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Verbose logging.")
  in
  let doc =
    "Serve the streaming engine's estimates over a socket: latest-TM, \
     per-OD-flow, topology and what-if queries over a length-prefixed \
     binary protocol with a JSON fallback, plus GET /metrics in Prometheus \
     text format. Overload sheds explicitly; shutdown drains gracefully \
     and flushes the checkpoint."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ dataset_arg $ weeks_arg $ seed_arg $ bins $ socket_arg
      $ port $ workers $ queue_cap $ max_inflight $ stop_after $ read_timeout
      $ kill_after $ resume $ checkpoint $ trace_out_arg $ verbose)

let loadgen_cmd =
  let host =
    let doc = "Server host when connecting over TCP." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port =
    let doc = "Server TCP port when no --socket is given." in
    Arg.(value & opt (int_in 1 65535) 4317 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let queries =
    let doc = "Number of queries to send." in
    Arg.(
      value & opt (int_at_least 0) 1000 & info [ "queries"; "n" ] ~docv:"N" ~doc)
  in
  let rate =
    let doc = "Open-loop Poisson arrival rate, queries per second." in
    Arg.(value & opt positive 10000. & info [ "rate" ] ~docv:"QPS" ~doc)
  in
  let connections =
    let doc = "Concurrent client connections." in
    Arg.(value & opt pos_int 2 & info [ "connections"; "c" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc =
      "Workload seed: arrival gaps, flow sizes and the query mix are a \
       pure function of it."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Speak the JSON fallback instead of binary.")
  in
  let paced =
    let doc =
      "Honor the Poisson arrival times in wall-clock (open-loop pacing) \
       instead of sending as fast as the server answers."
    in
    Arg.(value & flag & info [ "paced" ] ~doc)
  in
  let report =
    let doc =
      "Report detail: counts (deterministic: sent/answered taxonomy) or \
       full (adds qps and latency percentiles)."
    in
    Arg.(
      value
      & opt (enum [ ("counts", false); ("full", true) ]) true
      & info [ "report" ] ~docv:"MODE" ~doc)
  in
  let doc =
    "Generate an open-loop query workload against 'ic-lab serve': Poisson \
     arrivals x empirical flow-size CDF x weighted query mix, with \
     explicit shed/error accounting and latency percentiles."
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run_loadgen $ socket_arg $ host $ port $ queries $ rate
      $ connections $ seed $ json $ paced $ report)

let topology_cmd =
  let topo_name =
    let doc = "Built-in topology: geant, totem or abilene." in
    Arg.(
      value
      & opt (names_of topologies) "geant"
      & info [ "name"; "n" ] ~docv:"NAME" ~doc)
  in
  let topo_out =
    let doc = "Export to a topology file instead of printing." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let doc = "Inspect or export the built-in topologies." in
  Cmd.v (Cmd.info "topology" ~doc)
    Term.(const run_topology $ topo_name $ topo_out)

let main_cmd =
  let doc =
    "laboratory for the independent-connection traffic-matrix model \
     (Erramilli, Crovella, Taft; IMC 2006)"
  in
  Cmd.group (Cmd.info "ic-lab" ~version:"1.0.0" ~doc)
    [ experiment_cmd; gen_cmd; fit_cmd; estimate_cmd; shootout_cmd;
      stream_cmd; scenario_cmd; serve_cmd; loadgen_cmd; trace_cmd;
      metrics_cmd; whatif_cmd; topology_cmd ]

let () = exit (Cmd.eval main_cmd)
