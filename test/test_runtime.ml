(* The streaming runtime: telemetry, the degradation ladder, the fault-
   injecting feed, the engine's determinism, and — the load-bearing
   property — checkpoint/restore being bit-identical to never stopping. *)

module Telemetry = Ic_runtime.Telemetry
module Degrade = Ic_runtime.Degrade
module Engine = Ic_runtime.Engine
module Checkpoint = Ic_runtime.Checkpoint
module Feed = Ic_runtime.Feed
module Replay = Ic_runtime.Replay
module Snmp = Ic_topology.Snmp
module Tm = Ic_traffic.Tm

(* --- shared fixture: a small synthetic world on the Abilene graph ------- *)

let graph = Ic_topology.Topologies.abilene_like ()

let routing = Ic_topology.Routing.build graph

let binning = Ic_timeseries.Timebin.five_min

let series =
  let spec =
    {
      Ic_core.Synth.default_spec with
      nodes = Ic_topology.Graph.node_count graph;
      binning;
      bins = 48;
      mean_total_bytes = 1e9;
    }
  in
  (Ic_core.Synth.generate spec (Ic_prng.Rng.create 17)).Ic_core.Synth.series

let config ?(refit_every = 8) ?(window = 16) () =
  {
    (Engine.default_config routing binning) with
    Engine.refit_every;
    window;
    refit_sweeps = 4;
    stale_after = 24;
    impute_budget = 1;
    recover_after = 3;
  }

let mk_feed ?(drop = 0.05) ?(corrupt = 0.01) ~seed () =
  Feed.create ~noise_sigma:0.01 ~drop_rate:drop ~corrupt_rate:corrupt routing
    series ~seed

(* --- telemetry ---------------------------------------------------------- *)

let test_telemetry_counters () =
  let t = Telemetry.create () in
  Alcotest.(check int) "untouched" 0 (Telemetry.count t "nope");
  Telemetry.incr t "b";
  Telemetry.incr t "a";
  Telemetry.incr t "b";
  Telemetry.add t "a" 5;
  Alcotest.(check int) "a" 6 (Telemetry.count t "a");
  Alcotest.(check (list (pair string int)))
    "sorted"
    [ ("a", 6); ("b", 2) ]
    (Telemetry.counters t);
  Telemetry.set_counters t [ ("z", 9) ];
  Alcotest.(check (list (pair string int)))
    "replaced" [ ("z", 9) ] (Telemetry.counters t)

let test_telemetry_timing () =
  let now = ref 0. in
  let t = Telemetry.create ~clock:(fun () -> !now) () in
  let tick d f =
    Ic_obs.Trace.stage Ic_obs.Trace.noop "stage" ~clock:(Telemetry.clock t)
      (Telemetry.stage t "stage") (fun () ->
        now := !now +. d;
        f)
  in
  Alcotest.(check int) "result passes through" 41 (tick 0.001 41);
  ignore (tick 0.002 0);
  (match Ic_obs.Metrics.histograms (Telemetry.registry t) with
  | [ (name, h) ] ->
      Alcotest.(check string) "histogram" "stage_duration_ns" name;
      Alcotest.(check int) "events" 2 h.Ic_obs.Metrics.h_count;
      Alcotest.(check (float 1.)) "total ns" 3e6 h.Ic_obs.Metrics.h_sum
  | l -> Alcotest.failf "expected one stage, got %d" (List.length l));
  Alcotest.(check string)
    "dump is counters only" "counters:\n" (Telemetry.dump t)

(* --- degradation ladder ------------------------------------------------- *)

let test_degrade_down_immediate () =
  let d = Degrade.create ~initial:Degrade.Measured_ic ~recover_after:3 () in
  let l =
    Degrade.observe d ~bin:4 ~target:Degrade.Gravity
      ~reason:Degrade.Polls_missing
  in
  Alcotest.(check int) "drops straight to gravity" 3 (Degrade.rank l);
  match Degrade.transitions d with
  | [ tr ] ->
      Alcotest.(check int) "bin" 4 tr.Degrade.bin;
      Alcotest.(check string) "from" "measured-ic"
        (Degrade.level_name tr.Degrade.from_);
      Alcotest.(check string) "to" "gravity" (Degrade.level_name tr.Degrade.to_);
      Alcotest.(check string) "reason" "polls-missing"
        (Degrade.reason_name tr.Degrade.reason)
  | l -> Alcotest.failf "expected one transition, got %d" (List.length l)

let test_degrade_up_hysteretic () =
  let d = Degrade.create ~recover_after:3 () in
  let healthy bin =
    Degrade.observe d ~bin ~target:Degrade.Measured_ic ~reason:Degrade.Warmup
  in
  Alcotest.(check int) "still gravity" 3 (Degrade.rank (healthy 0));
  Alcotest.(check int) "still gravity" 3 (Degrade.rank (healthy 1));
  Alcotest.(check int) "one rung up" 2 (Degrade.rank (healthy 2));
  (* a bad bin resets the streak *)
  ignore
    (Degrade.observe d ~bin:3 ~target:Degrade.Closed_form
       ~reason:Degrade.Polls_missing);
  Alcotest.(check int) "streak reset" 2 (Degrade.rank (healthy 4));
  Alcotest.(check int) "streak reset" 2 (Degrade.rank (healthy 5));
  Alcotest.(check int) "up again" 1 (Degrade.rank (healthy 6));
  Alcotest.(check int) "recorded climbs" 2
    (List.length
       (List.filter
          (fun tr -> tr.Degrade.reason = Degrade.Recovered)
          (Degrade.transitions d)))

let test_degrade_snapshot_roundtrip () =
  let d = Degrade.create ~recover_after:2 () in
  ignore (Degrade.observe d ~bin:0 ~target:Degrade.Measured_ic ~reason:Degrade.Warmup);
  ignore (Degrade.observe d ~bin:1 ~target:Degrade.Measured_ic ~reason:Degrade.Warmup);
  let d' = Degrade.restore ~recover_after:2 (Degrade.snapshot d) in
  Alcotest.(check int) "level" (Degrade.rank (Degrade.level d))
    (Degrade.rank (Degrade.level d'));
  (* same next step: the streak survived the round trip *)
  let a = Degrade.observe d ~bin:2 ~target:Degrade.Measured_ic ~reason:Degrade.Warmup in
  let b = Degrade.observe d' ~bin:2 ~target:Degrade.Measured_ic ~reason:Degrade.Warmup in
  Alcotest.(check int) "same step" (Degrade.rank a) (Degrade.rank b)

(* --- snmp stream -------------------------------------------------------- *)

let test_snmp_stream_matches_batch () =
  let loads =
    Array.init 20 (fun k ->
        Array.init 14 (fun e -> 1e6 *. float_of_int ((k * 14) + e + 1)))
  in
  let spec = { Snmp.noise_sigma = 0.05; loss_rate = 0.2 } in
  let batch = Snmp.measure_series spec (Ic_prng.Rng.create 3) loads in
  let stream = Snmp.stream spec (Ic_prng.Rng.create 3) in
  Array.iteri
    (fun k truth ->
      let p = Snmp.poll stream truth in
      Array.iteri
        (fun e v ->
          if Int64.bits_of_float v <> Int64.bits_of_float p.Snmp.values.(e)
          then Alcotest.failf "bin %d link %d differs" k e)
        batch.(k))
    loads

(* --- feed --------------------------------------------------------------- *)

let drain feed =
  let rec go acc =
    match Feed.next feed with
    | None -> List.rev acc
    | Some (v, m) -> go ((Array.copy v, Array.copy m) :: acc)
  in
  go []

let obs_equal (v1, m1) (v2, m2) =
  m1 = m2
  && Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       v1 v2

let test_feed_deterministic () =
  let a = drain (mk_feed ~seed:5 ()) and b = drain (mk_feed ~seed:5 ()) in
  Alcotest.(check int) "length" (Ic_traffic.Series.length series)
    (List.length a);
  Alcotest.(check bool) "same stream" true (List.for_all2 obs_equal a b);
  let c = drain (mk_feed ~seed:6 ()) in
  Alcotest.(check bool) "seed matters" false (List.for_all2 obs_equal a c)

let test_feed_skip_is_fast_forward () =
  let a = mk_feed ~seed:9 () and b = mk_feed ~seed:9 () in
  for _ = 1 to 10 do
    ignore (Feed.next a)
  done;
  Feed.skip b 10;
  Alcotest.(check int) "position" (Feed.position a) (Feed.position b);
  Alcotest.(check bool) "same tail" true
    (List.for_all2 obs_equal (drain a) (drain b))

let test_feed_corruption_is_detectable () =
  let feed = mk_feed ~drop:0. ~corrupt:0.3 ~seed:4 () in
  let negatives = ref 0 in
  List.iter
    (fun (v, m) ->
      Array.iteri
        (fun e x ->
          if x < 0. then begin
            incr negatives;
            Alcotest.(check bool) "corrupt polls are not flagged missing"
              false m.(e)
          end)
        v)
    (drain feed);
  Alcotest.(check bool) "some corruption injected" true (!negatives > 0)

(* --- engine ------------------------------------------------------------- *)

let run_bins ?(cfg = config ()) ?drop ?corrupt ~seed bins =
  let engine = Engine.create cfg in
  let feed = mk_feed ?drop ?corrupt ~seed () in
  let res = Replay.run ~max_bins:bins engine feed in
  (engine, res)

let test_engine_deterministic () =
  let _, a = run_bins ~seed:21 30 and _, b = run_bins ~seed:21 30 in
  Alcotest.(check bool) "bit-identical" true
    (Replay.bit_identical a.Replay.estimates b.Replay.estimates)

let test_engine_recovers_and_degrades () =
  let engine, res = run_bins ~seed:21 40 in
  Alcotest.(check int) "bins" 40 (Engine.bins_seen engine);
  let tel = Engine.telemetry engine in
  Alcotest.(check int) "bins counter" 40 (Telemetry.count tel "bins");
  Alcotest.(check bool) "ladder moved" true
    (List.length (Engine.transitions engine) >= 1);
  (* cold start is gravity; a refit must have promoted the engine *)
  Alcotest.(check bool) "refit happened" true
    (Telemetry.count tel "refit.count" >= 1);
  Alcotest.(check bool) "reached an IC rung" true
    (Array.exists
       (fun l -> Degrade.rank l <= Degrade.rank Degrade.Stale_fp)
       res.Replay.levels);
  (* estimates are nonnegative and carry traffic *)
  Array.iter
    (fun tm ->
      let total = Tm.total tm in
      if not (Float.is_finite total && total > 0.) then
        Alcotest.fail "estimate without traffic")
    res.Replay.estimates

let test_engine_validation () =
  Alcotest.check_raises "no marginals"
    (Invalid_argument "Engine: routing must include marginal rows") (fun () ->
      let r = Ic_topology.Routing.build ~with_marginals:false graph in
      ignore (Engine.create (Engine.default_config r binning)));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Engine: window must be >= 1") (fun () ->
      ignore (Engine.create { (config ()) with Engine.window = 0 }));
  let engine = Engine.create (config ()) in
  Alcotest.check_raises "bad loads"
    (Invalid_argument "Engine.step: link-load dimension mismatch") (fun () ->
      ignore (Engine.step engine ~loads:[| 1. |] ~missing:[| false |]))

(* --- checkpointing ------------------------------------------------------ *)

let test_checkpoint_decode_errors () =
  let bad s =
    match Checkpoint.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoded garbage: %S" s
  in
  bad "";
  bad "not a checkpoint";
  bad "ic-runtime-checkpoint v1\nbin x\n";
  (* truncation anywhere is an error, not a crash *)
  let engine, _ = run_bins ~seed:33 12 in
  let path = Filename.temp_file "ic_ckpt" ".txt" in
  Checkpoint.save ~path engine;
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  bad (String.sub full 0 (String.length full / 2));
  (match Checkpoint.decode full with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  match Checkpoint.load ~path:"/nonexistent/ckpt" ~config:(config ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a missing file"

let test_checkpoint_config_mismatch () =
  let engine, _ = run_bins ~seed:33 12 in
  let snap = Engine.snapshot engine in
  let other =
    Ic_topology.Routing.build (Ic_topology.Topologies.geant_like ())
  in
  Alcotest.check_raises "wrong routing"
    (Invalid_argument "Engine.restore: link count does not match config")
    (fun () ->
      ignore
        (Engine.restore
           { (config ()) with Engine.routing = other }
           snap))

let test_snapshot_carries_fit_error () =
  (* The refit incumbent is engine state: absent until the engine's own
     first refit, then carried by the snapshot and reproduced bit for bit
     by restore (through the checkpoint codec) followed by snapshot. *)
  let fresh = Engine.snapshot (Engine.create (config ())) in
  Alcotest.(check bool) "no incumbent before a refit" true
    (fresh.Engine.s_fit_error = None);
  let engine, _ = run_bins ~seed:21 12 in
  Alcotest.(check int) "one refit" 1
    (Telemetry.count (Engine.telemetry engine) "refit.count");
  let snap = Engine.snapshot engine in
  let err =
    match snap.Engine.s_fit_error with
    | Some e -> e
    | None -> Alcotest.fail "snapshot after a refit has no incumbent"
  in
  Alcotest.(check bool) "incumbent is a RelL2" true
    (Float.is_finite err && err >= 0.);
  let restored =
    match Checkpoint.decode (Checkpoint.encode snap) with
    | Ok s -> Engine.restore (config ()) s
    | Error e -> Alcotest.fail e
  in
  match (Engine.snapshot restored).Engine.s_fit_error with
  | Some e' ->
      Alcotest.(check bool) "restore reproduces it bit for bit" true
        (Int64.bits_of_float e' = Int64.bits_of_float err)
  | None -> Alcotest.fail "restore dropped the incumbent"

(* The last fit's f and mean RelL2 and the bin it took effect at are
   gauges, absent until there is a fit, set by each refit and by restore
   from the checkpointed values; the refit's wall time is a gauge too, set
   by the refit only (wall-clock is not checkpointed state). *)
let test_refit_gauges () =
  let gauges engine =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"refit." name && name <> "refit.seconds")
      (Ic_obs.Metrics.gauges (Telemetry.registry (Engine.telemetry engine)))
  in
  let seconds engine =
    List.assoc_opt "refit.seconds"
      (Ic_obs.Metrics.gauges (Telemetry.registry (Engine.telemetry engine)))
  in
  let pp = Alcotest.(list (pair string (float 0.))) in
  Alcotest.check pp "none before a fit" [] (gauges (Engine.create (config ())));
  let engine, _ = run_bins ~seed:21 12 in
  let snap = Engine.snapshot engine in
  (* The refit due after bin 7 takes effect before bin 8. *)
  let expected =
    match snap.Engine.s_fit_error with
    | Some err ->
        [
          ("refit.effect_bin", 8.);
          ("refit.f", snap.Engine.s_f);
          ("refit.mean_rel_l2", err);
        ]
    | None -> Alcotest.fail "no fit after a refit"
  in
  Alcotest.check pp "set by the refit" expected (gauges engine);
  (match seconds engine with
  | Some s -> Alcotest.(check bool) "refit wall time" true (s > 0.)
  | None -> Alcotest.fail "no refit.seconds after a refit");
  let restored =
    match Checkpoint.decode (Checkpoint.encode snap) with
    | Ok s -> Engine.restore (config ()) s
    | Error e -> Alcotest.fail e
  in
  Alcotest.check pp "set by restore" expected (gauges restored);
  Alcotest.(check bool) "no wall time restored" true (seconds restored = None)

(* The tentpole property: save/restore through a real file, then N more
   bins, is bit-identical to an engine that never stopped. *)
let resume_matches_uninterrupted (seed, n1, n2, drop) =
  let cfg = config () in
  let head_engine = Engine.create cfg in
  let feed = mk_feed ~drop ~seed () in
  let head = Replay.run ~max_bins:n1 head_engine feed in
  let path = Filename.temp_file "ic_ckpt" ".txt" in
  Checkpoint.save ~path head_engine;
  let restored =
    match Checkpoint.load ~path ~config:cfg with
    | Ok e -> e
    | Error m -> failwith m
  in
  Sys.remove path;
  let feed2 = mk_feed ~drop ~seed () in
  Feed.skip feed2 n1;
  let tail = Replay.run ~max_bins:n2 restored feed2 in
  let _, full = run_bins ~cfg ~drop ~seed (n1 + n2) in
  Replay.bit_identical
    (Array.append head.Replay.estimates tail.Replay.estimates)
    full.Replay.estimates
  && Engine.transitions restored = Engine.transitions (Engine.create cfg |> fun e ->
         let f = mk_feed ~drop ~seed () in
         ignore (Replay.run ~max_bins:(n1 + n2) e f);
         e)

let checkpoint_property =
  QCheck.Test.make ~count:8 ~name:"resume is bit-identical to no kill"
    QCheck.(
      quad (int_range 0 1000) (int_range 1 20) (int_range 1 20)
        (oneofl [ 0.0; 0.05; 0.3 ]))
    resume_matches_uninterrupted

(* --- sliced refits ---------------------------------------------------------

   A refit runs in slices of at most [slice_visits] bin visits, one slice
   per step, suspended inside the fit's visit hook in between. Slicing must
   never change a fit: a sliced fit is the synchronous fit, bit for bit, at
   every budget. *)

let slice_visits = 768

let fit_bits (r : Ic_core.Params.stable_fp Ic_core.Fit.fitted) =
  let b = Int64.bits_of_float in
  ( ( b r.params.f,
      Array.map b r.params.preference,
      Array.map (Array.map b) r.params.activity ),
    (Array.map b r.per_bin_error, b r.mean_error, r.sweeps, r.both_basins) )

let synth_series ~nodes ~bins ~seed =
  let spec =
    {
      Ic_core.Synth.default_spec with
      nodes;
      binning;
      bins;
      mean_total_bytes = 1e9;
    }
  in
  (Ic_core.Synth.generate spec (Ic_prng.Rng.create seed)).Ic_core.Synth.series

(* Runs [fit] in slices of [budget] visits; returns its result, the
   visits it made and the slices it took, failing if a slice ran more than
   [budget] visits. *)
let run_sliced ~budget fit =
  let job = Ic_runtime.Sliced.create fit in
  let slices = ref 0 in
  while Ic_runtime.Sliced.result job = None do
    let before = Ic_runtime.Sliced.visits job in
    Ic_runtime.Sliced.run job ~budget;
    incr slices;
    let ran = Ic_runtime.Sliced.visits job - before in
    if ran > budget then
      QCheck2.Test.fail_reportf "a slice ran %d visits over a budget of %d" ran
        budget
  done;
  (Option.get (Ic_runtime.Sliced.result job), Ic_runtime.Sliced.visits job, !slices)

type mode = Cold | Warm_quiet | Warm_guard

let sliced_matches_sync =
  let tally = Hashtbl.create 4 in
  let gen =
    QCheck2.Gen.(
      let* bins = int_range 8 300 in
      let* nodes = int_range 3 7 in
      let* seed = int_range 0 10_000 in
      let* mode = oneofl [ Cold; Warm_quiet; Warm_guard ] in
      let* f_init = float_range 0.05 0.45 in
      let* budget = oneof [ int_range 1 slice_visits; oneofl [ 1; slice_visits ] ] in
      return (bins, nodes, seed, mode, f_init, budget))
  in
  let prop (bins, nodes, seed, mode, f_init, budget) =
    let series = synth_series ~nodes ~bins ~seed in
    let options, incumbent =
      let warm = { Ic_core.Fit.default_options with max_sweeps = 6; f_init } in
      match mode with
      | Cold -> ({ Ic_core.Fit.default_options with max_sweeps = 6 }, None)
      | Warm_quiet -> (warm, Some 10.)
      | Warm_guard -> (warm, Some 0.)
    in
    let sync = Ic_core.Fit.fit_stable_fp ~options ?incumbent series in
    let sliced, visits, slices =
      run_sliced ~budget (fun visit ->
          Ic_core.Fit.fit_stable_fp ~options ?incumbent ~visit series)
    in
    Hashtbl.replace tally (mode, sync.both_basins) ();
    if slices <> ((visits - 1) / budget) + 1 then
      QCheck2.Test.fail_reportf "%d visits at budget %d took %d slices" visits
        budget slices;
    fit_bits sliced = fit_bits sync
  in
  fun () ->
    QCheck2.Test.check_exn
      (QCheck2.Test.make ~count:60
         ~name:"a sliced fit is the synchronous fit at any budget" gen prop);
    List.iter
      (fun (shape, key) ->
        Alcotest.(check bool) shape true (Hashtbl.mem tally key))
      [
        ("cold fits drawn", (Cold, true));
        ("warm fits with the guard quiet drawn", (Warm_quiet, false));
        ("warm fits with the guard firing drawn", (Warm_guard, true));
      ]

let test_every_budget () =
  (* Every budget from one visit up to a whole slice, on one small window:
     cold and warm, the same bits each time. *)
  let series = synth_series ~nodes:4 ~bins:8 ~seed:3 in
  let options = { Ic_core.Fit.default_options with max_sweeps = 6 } in
  let warm = { options with f_init = 0.2 } in
  let cold = fit_bits (Ic_core.Fit.fit_stable_fp ~options series) in
  let hot = fit_bits (Ic_core.Fit.fit_stable_fp ~options:warm ~incumbent:0. series) in
  for budget = 1 to slice_visits do
    let r, _, _ =
      run_sliced ~budget (fun visit ->
          Ic_core.Fit.fit_stable_fp ~options ~visit series)
    in
    if fit_bits r <> cold then Alcotest.failf "cold fit differs at budget %d" budget;
    let r, _, _ =
      run_sliced ~budget (fun visit ->
          Ic_core.Fit.fit_stable_fp ~options:warm ~incumbent:0. ~visit series)
    in
    if fit_bits r <> hot then Alcotest.failf "warm fit differs at budget %d" budget
  done

let test_dropped_slice_discontinued () =
  (* A computation dropped while paused is discontinued by the GC: its
     unwinding runs, so its fiber is released. *)
  let unwound = ref false in
  let job =
    Ic_runtime.Sliced.create (fun visit ->
        Fun.protect
          ~finally:(fun () -> unwound := true)
          (fun () ->
            for _ = 1 to 10 do
              visit ()
            done))
  in
  Ic_runtime.Sliced.run job ~budget:3;
  Alcotest.(check int) "paused after its budget" 3 (Ic_runtime.Sliced.visits job);
  Alcotest.(check bool) "not unwound while held" false !unwound;
  ignore (Sys.opaque_identity job);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "unwound once dropped" true !unwound

(* A default-config engine (day window and cadence) on a synthetic day and
   a bit: the cold fit over the first 24 bins, then the day refit in
   slices. *)
let day_bins = 300

let day_series = lazy (synth_series ~nodes:12 ~bins:day_bins ~seed:41)

let day_config () =
  let c = Engine.default_config routing binning in
  assert (c.Engine.refit_every = 288 && c.Engine.window = 288);
  c

let day_feed ~seed =
  Feed.create ~noise_sigma:0.01 ~drop_rate:0.02 ~corrupt_rate:0.01 routing
    (Lazy.force day_series) ~seed

let gauge engine name =
  List.assoc_opt name
    (Ic_obs.Metrics.gauges (Telemetry.registry (Engine.telemetry engine)))

(* The fit a synchronous refit would make over [tms], and its visits. *)
let sync_refit ~f_init ?incumbent tms =
  let options =
    { Ic_core.Fit.default_options with max_sweeps = 6; f_init }
  in
  let visits = ref 0 in
  let fit =
    Ic_core.Fit.fit_stable_fp ~options ?incumbent
      ~visit:(fun () -> incr visits)
      (Ic_traffic.Series.make binning tms)
  in
  (fit, !visits)

let params_bits engine =
  Option.map
    (fun (f, p) -> (Int64.bits_of_float f, Array.map Int64.bits_of_float p))
    (Engine.params engine)

let test_cold_fit_at_24 () =
  let engine = Engine.create (day_config ()) in
  let feed = day_feed ~seed:2 in
  let head = Replay.run ~max_bins:24 engine feed in
  Alcotest.(check int) "nothing runs in the step that makes it due" 0
    (Telemetry.count (Engine.telemetry engine) "refit.count");
  Alcotest.(check bool) "not fitted yet" true (Engine.params engine = None);
  ignore (Replay.run ~max_bins:1 engine feed);
  Alcotest.(check int) "fitted before bin 24" 1
    (Telemetry.count (Engine.telemetry engine) "refit.count");
  let fit, visits =
    sync_refit ~f_init:Ic_core.Fit.default_options.f_init head.Replay.estimates
  in
  Alcotest.(check int) "one slice" 672 visits;
  Alcotest.(check bool) "the synchronous cold fit of bins [0, 24)" true
    (params_bits engine
    = Some
        ( Int64.bits_of_float fit.params.f,
          Array.map Int64.bits_of_float fit.params.preference ));
  Alcotest.(check (option (float 0.))) "took effect at bin 24" (Some 24.)
    (gauge engine "refit.effect_bin");
  (* With a cadence of at most 24 bins the engine has fitted by then. *)
  let engine = Engine.create (config ~refit_every:8 ~window:32 ()) in
  ignore (Replay.run ~max_bins:25 engine (day_feed ~seed:2));
  Alcotest.(check int) "no cold fit beside the cadence" 3
    (Telemetry.count (Engine.telemetry engine) "refit.count")

let test_day_refit_in_slices () =
  (* The day refit falls due after bin 287 and runs one slice per step from
     bin 288; it takes effect in the step whose slice completes it, with
     the synchronous fit of its window, and every step before that one
     estimates with the cold fit. *)
  let tracer = Ic_obs.Trace.create ~capacity:100_000 () in
  let engine = Engine.create ~tracer (day_config ()) in
  let feed = day_feed ~seed:4 in
  let head = Replay.run ~max_bins:288 engine feed in
  let cold = params_bits engine in
  let f_init = fst (Option.get (Engine.params engine)) in
  let fit, visits =
    sync_refit ~f_init ?incumbent:(gauge engine "refit.mean_rel_l2")
      head.Replay.estimates
  in
  let lag = (visits - 1) / slice_visits in
  Alcotest.(check bool) "a day refit needs several slices" true (lag >= 3);
  for bin = 288 to 288 + lag do
    Alcotest.(check bool)
      (Printf.sprintf "cold fit in effect before bin %d" bin)
      true
      (params_bits engine = cold);
    ignore (Replay.run ~max_bins:1 engine feed)
  done;
  Alcotest.(check bool) "the synchronous fit of the window" true
    (params_bits engine
    = Some
        ( Int64.bits_of_float fit.params.f,
          Array.map Int64.bits_of_float fit.params.preference ));
  Alcotest.(check (option (float 0.))) "took effect in its last slice"
    (Some (float_of_int (288 + lag)))
    (gauge engine "refit.effect_bin");
  (* One engine.refit span per step, inside it: the cold fit's one slice
     at bin 24 and the day refit's at bins 288 .. 288 + lag. *)
  let spans = Ic_obs.Trace.spans tracer in
  let step_bin = Hashtbl.create 512 in
  List.iter
    (fun (s : Ic_obs.Trace.span) ->
      if s.name = "engine.step" then
        Hashtbl.replace step_bin s.id (int_of_string (List.assoc "bin" s.attrs)))
    spans;
  let refit_bins =
    List.filter_map
      (fun (s : Ic_obs.Trace.span) ->
        if s.name = "engine.refit" then Hashtbl.find_opt step_bin s.parent
        else None)
      spans
  in
  Alcotest.(check (list int)) "one slice per step"
    (24 :: List.init (lag + 1) (fun k -> 288 + k))
    refit_bins

(* Kill/resume through a checkpoint at every bin around the cold fit and
   the day refit, in flight or not, is bit-identical to never stopping. *)
let test_resume_inside_refit () =
  let cfg = day_config () in
  let full_engine = Engine.create cfg in
  let full = Replay.run full_engine (day_feed ~seed:6) in
  List.iter
    (fun kill ->
      let head_engine = Engine.create cfg in
      let feed = day_feed ~seed:6 in
      let head = Replay.run ~max_bins:kill head_engine feed in
      let text = Checkpoint.encode (Engine.snapshot head_engine) in
      let restored =
        match Checkpoint.decode text with
        | Ok s -> Engine.restore cfg s
        | Error e -> Alcotest.fail e
      in
      let tail = Replay.run restored feed in
      let label = Printf.sprintf "kill after %d" kill in
      Alcotest.(check bool) (label ^ ": estimates") true
        (Replay.bit_identical
           (Array.append head.Replay.estimates tail.Replay.estimates)
           full.Replay.estimates);
      Alcotest.(check bool) (label ^ ": head engine unmoved") true
        (Replay.bit_identical
           (Replay.run head_engine (day_feed ~seed:6 |> fun f -> Feed.skip f kill; f))
             .Replay.estimates
           tail.Replay.estimates);
      Alcotest.(check bool) (label ^ ": transitions") true
        (Engine.transitions restored = Engine.transitions full_engine);
      (* A restored plan has no cached factor: its first bin refactors
         (to the same bits), so the fast-path counters are left out. *)
      let counters engine =
        List.filter
          (fun (name, _) -> not (String.starts_with ~prefix:"fastpath." name))
          (Telemetry.counters (Engine.telemetry engine))
      in
      Alcotest.(check (list (pair string int))) (label ^ ": counters")
        (counters full_engine) (counters restored);
      if kill = 290 then
        Alcotest.(check bool) "an in-flight refit rides the checkpoint" true
          (List.exists
             (String.starts_with ~prefix:"refit ")
             (String.split_on_char '\n' text)))
    [ 20; 24; 25; 30; 288; 289; 290; 293; 297 ]

(* Configs whose refits fit in one slice estimate exactly as when each refit
   ran inside the step that made it due: digests of every estimate's bits
   and rung, recorded on that engine. *)
let test_one_slice_configs_unchanged () =
  let digest (res : Replay.result) =
    let buf = Buffer.create 4096 in
    Array.iter
      (fun tm ->
        Array.iter
          (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v))
          (Tm.unsafe_data tm))
      res.Replay.estimates;
    Array.iter
      (fun l -> Buffer.add_string buf (Degrade.level_name l))
      res.Replay.levels;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  List.iter
    (fun (seed, drop, refit_every, window, expected) ->
      let engine = Engine.create (config ~refit_every ~window ()) in
      let feed =
        Feed.create ~noise_sigma:0.01 ~drop_rate:drop ~corrupt_rate:0.01
          routing series ~seed
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d, refit every %d over %d bins" seed
           refit_every window)
        expected
        (digest (Replay.run engine feed)))
    [
      (21, 0.05, 8, 16, "604910468674bde7ffc26ee06f51f3fa");
      (5, 0.3, 8, 16, "f336b363e0ef5d82b9605e58814a3654");
      (9, 0.0, 16, 16, "94f72340d2f112a3c95aad268a9e8304");
      (3, 0.05, 6, 24, "4165283607c3be7829a1cc53b65784ff");
    ]

let () =
  Alcotest.run "ic_runtime"
    [
      ( "telemetry",
        [
          Alcotest.test_case "counters" `Quick test_telemetry_counters;
          Alcotest.test_case "timing" `Quick test_telemetry_timing;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "down immediate" `Quick test_degrade_down_immediate;
          Alcotest.test_case "up hysteretic" `Quick test_degrade_up_hysteretic;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_degrade_snapshot_roundtrip;
        ] );
      ( "snmp stream",
        [
          Alcotest.test_case "matches batch" `Quick
            test_snmp_stream_matches_batch;
        ] );
      ( "feed",
        [
          Alcotest.test_case "deterministic" `Quick test_feed_deterministic;
          Alcotest.test_case "skip fast-forwards" `Quick
            test_feed_skip_is_fast_forward;
          Alcotest.test_case "corruption detectable" `Quick
            test_feed_corruption_is_detectable;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "degrades and recovers" `Quick
            test_engine_recovers_and_degrades;
          Alcotest.test_case "validation" `Quick test_engine_validation;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "decode errors" `Quick test_checkpoint_decode_errors;
          Alcotest.test_case "config mismatch" `Quick
            test_checkpoint_config_mismatch;
          Alcotest.test_case "snapshot carries the refit incumbent" `Quick
            test_snapshot_carries_fit_error;
          Alcotest.test_case "refit gauges" `Quick test_refit_gauges;
          QCheck_alcotest.to_alcotest checkpoint_property;
          Alcotest.test_case "resume inside a refit is bit-identical" `Quick
            test_resume_inside_refit;
        ] );
      ( "sliced refit",
        [
          Alcotest.test_case "sliced fit is the synchronous fit" `Quick
            sliced_matches_sync;
          Alcotest.test_case "every budget up to a slice" `Quick
            test_every_budget;
          Alcotest.test_case "dropped while paused is discontinued" `Quick
            test_dropped_slice_discontinued;
          Alcotest.test_case "cold fit after 24 bins" `Quick test_cold_fit_at_24;
          Alcotest.test_case "day refit spreads over its slices" `Quick
            test_day_refit_in_slices;
          Alcotest.test_case "one-slice configs estimate as before" `Quick
            test_one_slice_configs_unchanged;
        ] );
    ]
