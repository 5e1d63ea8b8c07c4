module Vec = Ic_linalg.Vec
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Graph = Ic_topology.Graph
module Routing = Ic_topology.Routing
module Topologies = Ic_topology.Topologies
module Rng = Ic_prng.Rng
module Tm_family = Ic_core.Tm_family
module Schedule = Ic_scenario.Schedule
module Timeline = Ic_scenario.Timeline
module Provision = Ic_scenario.Provision
module Runner = Ic_scenario.Runner
module Engine = Ic_runtime.Engine
module Feed = Ic_runtime.Feed
module Degrade = Ic_runtime.Degrade
module Telemetry = Ic_runtime.Telemetry

let binning = Ic_timeseries.Timebin.five_min

(* Both directed edge ids of a physical link, by endpoint name. *)
let link_ids graph a b =
  let idx name =
    match Graph.index_of_name graph name with
    | Some i -> i
    | None -> Alcotest.fail ("no node " ^ name)
  in
  let u = idx a and v = idx b in
  List.filter_map
    (fun (s, d) ->
      Option.map (fun (e : Graph.edge) -> e.id) (Graph.find_edge graph ~src:s ~dst:d))
    [ (u, v); (v, u) ]

(* Links of [graph] whose loss keeps it connected, as (a, b) name pairs. *)
let safe_links graph =
  let base = Routing.build ~with_marginals:false graph in
  List.filter_map
    (fun (e : Graph.edge) ->
      let a = Graph.name graph e.src and b = Graph.name graph e.dst in
      match Routing.rebuild ~down:(link_ids graph a b) base with
      | _ -> Some (a, b)
      | exception Invalid_argument _ -> None)
    (Graph.edges graph)

let base_series ?(family = Tm_family.Ic) ~graph ~bins seed =
  let spec =
    { Tm_family.default_spec with nodes = Graph.node_count graph; bins }
  in
  Tm_family.generate family spec (Rng.create seed)

(* --- Routing.rebuild ----------------------------------------------------- *)

let test_rebuild_shape () =
  let graph = Topologies.abilene_like () in
  let base = Routing.build graph in
  let down = link_ids graph "KSCY" "IPLS" in
  let r = Routing.rebuild ~down base in
  Alcotest.(check int) "row count" (Routing.row_count base)
    (Routing.row_count r);
  Alcotest.(check int) "od count" (Routing.od_count base) (Routing.od_count r);
  let n = Graph.node_count graph in
  let x = Array.make (n * n) 1. in
  let y = Routing.link_loads r x in
  List.iter
    (fun e -> Alcotest.(check (float 0.)) "failed row empty" 0. y.(e))
    down;
  (* surviving links carry the rerouted traffic; marginals are intact *)
  let y0 = Routing.link_loads base x in
  let sum lo hi v =
    let acc = ref 0. in
    for i = lo to hi - 1 do
      acc := !acc +. v.(i)
    done;
    !acc
  in
  let m = Graph.edge_count graph in
  Alcotest.(check (float 1e-6)) "marginals unchanged"
    (sum m (m + (2 * n)) y0)
    (sum m (m + (2 * n)) y)

let test_rebuild_rejects_disconnection () =
  let graph = Topologies.star ~n:5 in
  let base = Routing.build graph in
  let down = link_ids graph (Graph.name graph 0) (Graph.name graph 1) in
  Alcotest.(check bool) "raises" true
    (match Routing.rebuild ~down base with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_rebuild_validation () =
  let graph = Topologies.abilene_like () in
  let base = Routing.build graph in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "bad id" true
    (raises (fun () -> Routing.rebuild ~down:[ 999 ] base));
  Alcotest.(check bool) "bad weight" true
    (raises (fun () -> Routing.rebuild ~reweight:[ (0, -1.) ] base))

let test_rebuild_reweight_moves_traffic () =
  let graph = Topologies.abilene_like () in
  let base = Routing.build graph in
  let ids = link_ids graph "KSCY" "IPLS" in
  let r = Routing.rebuild ~reweight:(List.map (fun id -> (id, 50.)) ids) base in
  let n = Graph.node_count graph in
  let x = Array.make (n * n) 1. in
  let y0 = Routing.link_loads base x and y = Routing.link_loads r x in
  List.iter
    (fun e ->
      Alcotest.(check bool) "expensive link sheds traffic" true
        (y.(e) < y0.(e)))
    ids

(* --- Tm_family ----------------------------------------------------------- *)

let test_families_well_formed () =
  let bins = 24 in
  List.iter
    (fun family ->
      let spec = { Tm_family.default_spec with nodes = 8; bins } in
      let s = Tm_family.generate family spec (Rng.create 42) in
      Alcotest.(check int)
        (Tm_family.name family ^ " bins")
        bins (Series.length s);
      Alcotest.(check int) "size" 8 (Series.size s);
      let total = ref 0. in
      for t = 0 to bins - 1 do
        let tm = Series.tm s t in
        total := !total +. Tm.total tm;
        for i = 0 to 7 do
          for j = 0 to 7 do
            let v = Tm.get tm i j in
            Alcotest.(check bool) "finite nonneg" true
              (Float.is_finite v && v >= 0.)
          done
        done
      done;
      let mean = !total /. float_of_int bins in
      (* diurnal modulation and noise: right order of magnitude, not exact *)
      Alcotest.(check bool)
        (Tm_family.name family ^ " mean level")
        true
        (mean > 0.3 *. spec.Tm_family.mean_total_bytes
        && mean < 3. *. spec.Tm_family.mean_total_bytes))
    Tm_family.all

let test_families_deterministic () =
  List.iter
    (fun family ->
      let spec = { Tm_family.default_spec with nodes = 6; bins = 12 } in
      let a = Tm_family.generate family spec (Rng.create 9)
      and b = Tm_family.generate family spec (Rng.create 9) in
      for t = 0 to 11 do
        Alcotest.(check bool) "bit-identical" true
          (Tm.to_vector (Series.tm a t) = Tm.to_vector (Series.tm b t))
      done)
    Tm_family.all

(* --- Schedule / Timeline ------------------------------------------------- *)

let test_schedule_validation () =
  let raises ev =
    match Schedule.validate ~bins:48 { seed = 1; events = [ ev ] } with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bin out of range" true
    (raises (Schedule.Outage { node = "x"; at = 48; duration = 2 }));
  Alcotest.(check bool) "bad duration" true
    (raises (Schedule.Ddos { victim = "x"; at = 0; duration = 0; magnitude = 2. }));
  Alcotest.(check bool) "bad boost" true
    (raises
       (Schedule.Flash_crowd { node = "x"; at = 0; duration = 2; boost = 0. }));
  Schedule.validate ~bins:48
    {
      seed = 1;
      events = [ Schedule.Link_fail { a = "a"; b = "b"; at = 0; duration = None } ];
    }

let compile ?(bins = 36) ?family ~events seed =
  let graph = Topologies.abilene_like () in
  let base = base_series ?family ~graph ~bins seed in
  (graph, Timeline.compile ~graph ~base { seed; events })

let test_timeline_ddos_labels () =
  let _, tl =
    compile 3
      ~events:[ Schedule.Ddos { victim = "DNVR"; at = 10; duration = 5; magnitude = 12. } ]
  in
  Alcotest.(check bool) "labels exist" true (tl.Timeline.labels <> []);
  List.iter
    (fun (b, _, d) ->
      Alcotest.(check bool) "in window" true (b >= 10 && b < 15);
      Alcotest.(check string) "victim column" "DNVR"
        (Graph.name tl.Timeline.graph d))
    tl.Timeline.labels;
  (* the injected volume really is in the series *)
  let base = base_series ~graph:tl.Timeline.graph ~bins:36 3 in
  Alcotest.(check bool) "traffic added" true
    (Tm.total (Series.tm tl.Timeline.series 12) > Tm.total (Series.tm base 12))

let test_timeline_outage_unlabeled () =
  let _, tl =
    compile 4 ~events:[ Schedule.Outage { node = "DNVR"; at = 10; duration = 5 } ]
  in
  Alcotest.(check (list (triple int int int))) "no labels" [] tl.Timeline.labels;
  let base = base_series ~graph:tl.Timeline.graph ~bins:36 4 in
  Alcotest.(check bool) "traffic removed" true
    (Tm.total (Series.tm tl.Timeline.series 12) < Tm.total (Series.tm base 12))

let test_timeline_epochs () =
  let graph, tl =
    compile 5
      ~events:
        [ Schedule.Link_fail { a = "KSCY"; b = "IPLS"; at = 12; duration = Some 10 } ]
  in
  Alcotest.(check int) "three epochs" 3 (Array.length tl.Timeline.epochs);
  Alcotest.(check (list (pair int string))) "notes"
    [
      (12, "topology: link KSCY-IPLS down (routes recomputed)");
      (22, "topology: link KSCY-IPLS restored (routes recomputed)");
    ]
    tl.Timeline.topo_notes;
  let down = link_ids graph "KSCY" "IPLS" in
  let n = Graph.node_count graph in
  let x = Array.make (n * n) 1. in
  List.iter
    (fun (bin, failed) ->
      let y = Routing.link_loads (Timeline.routing_at tl bin) x in
      List.iter
        (fun e ->
          if failed then Alcotest.(check (float 0.)) "down row empty" 0. y.(e)
          else Alcotest.(check bool) "restored row carries" true (y.(e) > 0.))
        down)
    [ (0, false); (11, false); (12, true); (21, true); (22, false); (35, false) ];
  (* deterministic: same schedule, same labels and loads *)
  let _, tl2 =
    compile 5
      ~events:
        [ Schedule.Link_fail { a = "KSCY"; b = "IPLS"; at = 12; duration = Some 10 } ]
  in
  Alcotest.(check bool) "loads bit-identical" true
    (tl.Timeline.loads = tl2.Timeline.loads)

let test_timeline_validation () =
  let graph = Topologies.abilene_like () in
  let base = base_series ~graph ~bins:12 6 in
  let raises events =
    match Timeline.compile ~graph ~base { seed = 6; events } with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unknown node" true
    (raises [ Schedule.Outage { node = "LHR"; at = 2; duration = 2 } ]);
  Alcotest.(check bool) "unknown link" true
    (raises [ Schedule.Link_fail { a = "STTL"; b = "ATLA"; at = 2; duration = None } ]);
  (* STTL has two links: failing both at once cuts it off. [epochs] finds
     that without the traffic, naming the links and the bin. *)
  let isolate =
    [
      Schedule.Link_fail { a = "STTL"; b = "SNVA"; at = 2; duration = Some 6 };
      Schedule.Link_fail { a = "STTL"; b = "DNVR"; at = 5; duration = None };
    ]
  in
  Alcotest.(check bool) "disconnecting failure set" true (raises isolate);
  Alcotest.check_raises "epochs name the cut"
    (Invalid_argument
       "Scenario: taking STTL-DNVR,STTL-SNVA down at bin 5 disconnects the \
        topology") (fun () ->
      ignore (Timeline.epochs ~graph ~bins:12 { seed = 6; events = isolate }));
  Alcotest.(check int) "one failure at a time is fine" 3
    (Array.length
       (Timeline.epochs ~graph ~bins:12 { seed = 6; events = [ List.hd isolate ] }))

(* --- Feed.of_loads and feed telemetry ------------------------------------ *)

let test_of_loads_matches_create () =
  let graph = Topologies.abilene_like () in
  let routing = Routing.build graph in
  let series = base_series ~graph ~bins:20 7 in
  let loads =
    Array.init 20 (fun t ->
        Routing.link_loads routing (Tm.to_vector (Series.tm series t)))
  in
  let a =
    Feed.create ~noise_sigma:0.05 ~drop_rate:0.2 ~corrupt_rate:0.1 routing
      series ~seed:13
  in
  let b =
    Feed.of_loads ~noise_sigma:0.05 ~drop_rate:0.2 ~corrupt_rate:0.1 loads
      ~seed:13
  in
  let rec drain () =
    match (Feed.next a, Feed.next b) with
    | None, None -> ()
    | Some (la, ma), Some (lb, mb) ->
        Alcotest.(check bool) "same loads" true (la = lb);
        Alcotest.(check bool) "same mask" true (ma = mb);
        drain ()
    | _ -> Alcotest.fail "length mismatch"
  in
  drain ()

let test_feed_counters () =
  let graph = Topologies.abilene_like () in
  let routing = Routing.build graph in
  let series = base_series ~graph ~bins:30 8 in
  let telemetry = Telemetry.create () in
  let feed =
    Feed.create ~drop_rate:0.3 ~corrupt_rate:0.2 ~telemetry routing series
      ~seed:5
  in
  let rows = Routing.row_count routing in
  let missing = ref 0 in
  let rec drain () =
    match Feed.next feed with
    | None -> ()
    | Some (_, mask) ->
        Array.iter (fun m -> if m then incr missing) mask;
        drain ()
  in
  drain ();
  Alcotest.(check int) "polls total" (30 * rows)
    (Telemetry.count telemetry "feed.polls.total");
  Alcotest.(check int) "dropped = engine-visible missing" !missing
    (Telemetry.count telemetry "feed.polls.dropped");
  Alcotest.(check bool) "corruptions counted" true
    (Telemetry.count telemetry "feed.polls.corrupt" > 0);
  let carried = Telemetry.count telemetry "feed.polls.carried" in
  Alcotest.(check bool) "carries bounded by drops" true
    (carried <= !missing && carried > 0)

let test_feed_skip_counts_nothing () =
  let graph = Topologies.abilene_like () in
  let routing = Routing.build graph in
  let series = base_series ~graph ~bins:30 9 in
  let telemetry = Telemetry.create () in
  let feed =
    Feed.create ~drop_rate:0.3 ~telemetry routing series ~seed:5
  in
  Feed.skip feed 10;
  Alcotest.(check int) "skip silent" 0
    (Telemetry.count telemetry "feed.polls.total");
  ignore (Feed.next feed);
  Alcotest.(check int) "counting resumes" (Routing.row_count routing)
    (Telemetry.count telemetry "feed.polls.total")

(* --- Provision ----------------------------------------------------------- *)

let test_provision_zero_regret () =
  let graph = Topologies.abilene_like () in
  let routing = Routing.build graph in
  let series = base_series ~graph ~bins:12 10 in
  let tms = Array.init 12 (Series.tm series) in
  let p = Provision.plan ~routing ~headroom:0.7 ~estimated:tms ~truth:tms in
  Alcotest.(check (float 1e-9)) "true util is headroom" 0.7 p.Provision.max_util_true;
  Alcotest.(check (float 1e-9)) "est util is headroom" 0.7 p.Provision.max_util_est;
  Alcotest.(check (float 1e-9)) "no regret" 0. p.Provision.regret;
  Alcotest.(check int) "nothing underprovisioned" 0 p.Provision.underprovisioned

let test_provision_underestimate_regret () =
  let graph = Topologies.abilene_like () in
  let routing = Routing.build graph in
  let series = base_series ~graph ~bins:12 11 in
  let truth = Array.init 12 (Series.tm series) in
  let estimated = Array.map (Tm.scale 0.5) truth in
  let p = Provision.plan ~routing ~headroom:0.7 ~estimated ~truth in
  Alcotest.(check bool) "positive regret" true (p.Provision.regret > 0.);
  Alcotest.(check bool) "links overrun" true (p.Provision.underprovisioned > 0)

let test_provision_validation () =
  let graph = Topologies.abilene_like () in
  let routing = Routing.build graph in
  let series = base_series ~graph ~bins:4 12 in
  let tms = Array.init 4 (Series.tm series) in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "bad headroom" true
    (raises (fun () -> Provision.plan ~routing ~headroom:1.5 ~estimated:tms ~truth:tms));
  Alcotest.(check bool) "length mismatch" true
    (raises (fun () ->
         Provision.plan ~routing ~headroom:0.7 ~estimated:(Array.sub tms 0 2)
           ~truth:tms))

(* --- Runner -------------------------------------------------------------- *)

let scenario_config tl =
  let c = Engine.default_config (Timeline.base_routing tl) binning in
  { c with Engine.refit_every = 6; window = 18; recover_after = 3 }

let default_events graph bins =
  let a, b = List.hd (safe_links graph) in
  [
    Schedule.Link_fail { a; b; at = bins / 3; duration = Some (bins / 4) };
    Schedule.Ddos
      { victim = "DNVR"; at = bins / 2; duration = bins / 6; magnitude = 12. };
  ]

let test_play_tracks_timeline_routing () =
  let graph = Topologies.abilene_like () in
  let bins = 36 in
  let _, tl = compile ~bins 13 ~events:(default_events graph bins) in
  let engine = Engine.create (scenario_config tl) in
  let feed = Runner.feed tl ~seed:13 in
  let seg =
    Runner.play
      ~on_bin:(fun bin _ ->
        Alcotest.(check bool) "engine routing is epoch routing" true
          (Engine.routing engine == Timeline.routing_at tl bin))
      engine feed tl
  in
  Alcotest.(check int) "all bins stepped" bins (Array.length seg.Runner.estimates);
  Alcotest.(check int) "both boundaries applied" 2
    (List.length seg.Runner.applied);
  Alcotest.(check int) "counter" 2
    (Telemetry.count (Engine.telemetry engine) "topology.changes");
  Alcotest.(check bool) "ladder recorded the change" true
    (List.exists
       (fun (tr : Degrade.transition) -> tr.reason = Degrade.Topology_change)
       (Engine.transitions engine))

let test_play_lockstep_enforced () =
  let graph = Topologies.abilene_like () in
  let _, tl = compile 14 ~events:(default_events graph 36) in
  let engine = Engine.create (scenario_config tl) in
  let feed = Runner.feed tl ~seed:14 in
  Feed.skip feed 3;
  Alcotest.(check bool) "out of step rejected" true
    (match Runner.play engine feed tl with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_evaluate_scores_events () =
  let graph = Topologies.abilene_like () in
  let bins = 36 in
  let _, tl = compile ~bins 15 ~events:(default_events graph bins) in
  let engine = Engine.create (scenario_config tl) in
  let seg = Runner.play engine (Runner.feed tl ~seed:15) tl in
  let v = Runner.evaluate tl ~estimates:seg.Runner.estimates in
  let s = v.Runner.score in
  Alcotest.(check int) "one labeled event scored" 1
    (List.length s.Ic_scenario.Score.events);
  let ev = s.Ic_scenario.Score.evaluation in
  Alcotest.(check bool) "consistent arithmetic" true
    (ev.Ic_core.Anomaly.true_positives + ev.Ic_core.Anomaly.false_positives
    = List.length s.Ic_scenario.Score.detections);
  let p = v.Runner.provision in
  Alcotest.(check bool) "regret is finite" true
    (Float.is_finite p.Provision.regret)

(* Mid-scenario kill/resume: bit-identical to the uninterrupted run, for a
   random safe link failed at a random bin with a random kill point. *)
let resume_prop (link_idx, fail_at, duration, kill_at, seed) =
  let graph = Topologies.abilene_like () in
  let bins = 30 in
  let links = safe_links graph in
  let a, b = List.nth links (link_idx mod List.length links) in
  let fail_at = 1 + (fail_at mod (bins - 2)) in
  let duration = 1 + (duration mod (bins - fail_at)) in
  let kill_at = 1 + (kill_at mod (bins - 1)) in
  let events =
    [
      Schedule.Link_fail { a; b; at = fail_at; duration = Some duration };
      Schedule.Ddos
        { victim = "DNVR"; at = bins / 2; duration = 5; magnitude = 10. };
    ]
  in
  let base = base_series ~graph ~bins seed in
  let tl = Timeline.compile ~graph ~base { seed; events } in
  let config = scenario_config tl in
  let full =
    let engine = Engine.create config in
    Runner.play engine (Runner.feed tl ~seed) tl
  in
  let path = Filename.temp_file "ic-scenario-test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let engine0 = Engine.create config in
      let head = Runner.play ~upto:kill_at engine0 (Runner.feed tl ~seed) tl in
      Ic_runtime.Checkpoint.save ~path engine0;
      match Ic_runtime.Checkpoint.load ~path ~config with
      | Error e -> Alcotest.fail e
      | Ok engine1 ->
          let feed = Runner.feed tl ~seed in
          Feed.skip feed kill_at;
          Runner.resume_routing engine1 tl;
          let tail = Runner.play engine1 feed tl in
          let combined =
            Array.append head.Runner.estimates tail.Runner.estimates
          in
          Ic_runtime.Replay.bit_identical combined full.Runner.estimates)

let qcheck_resume =
  QCheck.Test.make ~count:12
    ~name:"kill/resume mid-scenario is bit-identical (random link/bins)"
    QCheck.(
      tup5 (int_range 0 50) (int_range 0 50) (int_range 0 50)
        (int_range 0 50) (int_range 0 1000))
    resume_prop

(* A random mid-stream link kill: the ladder records the transition and the
   estimates stay finite (no solve against a stale routing plan). *)
let topo_kill_prop (link_idx, fail_at, seed) =
  let graph = Topologies.abilene_like () in
  let bins = 24 in
  let links = safe_links graph in
  let a, b = List.nth links (link_idx mod List.length links) in
  let fail_at = 1 + (fail_at mod (bins - 1)) in
  let events = [ Schedule.Link_fail { a; b; at = fail_at; duration = None } ] in
  let base = base_series ~graph ~bins seed in
  let tl = Timeline.compile ~graph ~base { seed; events } in
  let engine = Engine.create (scenario_config tl) in
  let seg = Runner.play engine (Runner.feed tl ~seed) tl in
  let finite =
    Array.for_all
      (fun tm -> Array.for_all Float.is_finite (Tm.to_vector tm))
      seg.Runner.estimates
  in
  finite
  && Telemetry.count (Engine.telemetry engine) "topology.changes" = 1
  && Array.length seg.Runner.estimates = bins

let qcheck_topo_kill =
  QCheck.Test.make ~count:20
    ~name:"random link kill mid-stream: transition recorded, estimates finite"
    QCheck.(triple (int_range 0 50) (int_range 0 50) (int_range 0 1000))
    topo_kill_prop

let () =
  Alcotest.run "ic_scenario"
    [
      ( "rebuild",
        [
          Alcotest.test_case "constant shape" `Quick test_rebuild_shape;
          Alcotest.test_case "rejects disconnection" `Quick
            test_rebuild_rejects_disconnection;
          Alcotest.test_case "validation" `Quick test_rebuild_validation;
          Alcotest.test_case "reweight moves traffic" `Quick
            test_rebuild_reweight_moves_traffic;
        ] );
      ( "tm families",
        [
          Alcotest.test_case "well-formed" `Quick test_families_well_formed;
          Alcotest.test_case "deterministic" `Quick test_families_deterministic;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "schedule validation" `Quick
            test_schedule_validation;
          Alcotest.test_case "ddos labels" `Quick test_timeline_ddos_labels;
          Alcotest.test_case "outage unlabeled" `Quick
            test_timeline_outage_unlabeled;
          Alcotest.test_case "epochs" `Quick test_timeline_epochs;
          Alcotest.test_case "validation" `Quick test_timeline_validation;
        ] );
      ( "feed",
        [
          Alcotest.test_case "of_loads = create" `Quick
            test_of_loads_matches_create;
          Alcotest.test_case "fault counters" `Quick test_feed_counters;
          Alcotest.test_case "skip counts nothing" `Quick
            test_feed_skip_counts_nothing;
        ] );
      ( "provision",
        [
          Alcotest.test_case "zero regret on truth" `Quick
            test_provision_zero_regret;
          Alcotest.test_case "underestimates cost" `Quick
            test_provision_underestimate_regret;
          Alcotest.test_case "validation" `Quick test_provision_validation;
        ] );
      ( "runner",
        [
          Alcotest.test_case "tracks timeline routing" `Quick
            test_play_tracks_timeline_routing;
          Alcotest.test_case "lockstep enforced" `Quick
            test_play_lockstep_enforced;
          Alcotest.test_case "evaluate" `Quick test_evaluate_scores_events;
          QCheck_alcotest.to_alcotest qcheck_resume;
          QCheck_alcotest.to_alcotest qcheck_topo_kill;
        ] );
    ]
