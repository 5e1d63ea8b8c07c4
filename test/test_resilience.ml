(* The self-healing runtime: bounded degrade history, feed ingest guards,
   the collector circuit breaker, anomaly-gated refits with their escape
   hatch, epoch-aware early refits, supervised crash recovery, and the
   robust detection scale — plus the kill/resume bit-identity of all of it
   together. *)

module Vec = Ic_linalg.Vec
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Graph = Ic_topology.Graph
module Topologies = Ic_topology.Topologies
module Rng = Ic_prng.Rng
module Tm_family = Ic_core.Tm_family
module Anomaly = Ic_core.Anomaly
module Schedule = Ic_scenario.Schedule
module Timeline = Ic_scenario.Timeline
module Runner = Ic_scenario.Runner
module Score = Ic_scenario.Score
module Engine = Ic_runtime.Engine
module Feed = Ic_runtime.Feed
module Degrade = Ic_runtime.Degrade
module Telemetry = Ic_runtime.Telemetry
module Checkpoint = Ic_runtime.Checkpoint
module Shard = Ic_runtime.Shard
module Replay = Ic_runtime.Replay
module Pool = Ic_parallel.Pool

let binning = Ic_timeseries.Timebin.five_min

let base_series ?(family = Tm_family.Bimodal) ~graph ~bins seed =
  let spec =
    { Tm_family.default_spec with nodes = Graph.node_count graph; bins }
  in
  Tm_family.generate family spec (Rng.create seed)

(* --- degrade history bounds ---------------------------------------------- *)

let test_degrade_retention_cap () =
  let d = Degrade.create ~history:4 ~recover_after:2 () in
  for bin = 0 to 9 do
    Degrade.note d ~bin ~reason:Degrade.Epoch_refit
  done;
  Alcotest.(check int) "count exact" 10 (Degrade.transition_count d);
  let kept = Degrade.transitions d in
  Alcotest.(check int) "retained capped" 4 (List.length kept);
  Alcotest.(check (list int)) "newest kept, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (t : Degrade.transition) -> t.Degrade.bin) kept);
  let snap = Degrade.snapshot d in
  Alcotest.(check int) "snapshot count" 10 snap.Degrade.s_count;
  Alcotest.(check int) "snapshot retained" 4
    (List.length snap.Degrade.s_transitions);
  (* Restoring under a tighter cap trims the history, never the count. *)
  let d2 = Degrade.restore ~history:2 ~recover_after:2 snap in
  Alcotest.(check int) "restored count" 10 (Degrade.transition_count d2);
  Alcotest.(check int) "restored retained" 2
    (List.length (Degrade.transitions d2));
  (* A count below the retained history is a corrupt snapshot. *)
  Alcotest.check_raises "count < retained rejected"
    (Invalid_argument "Degrade.restore: count below retained transitions")
    (fun () ->
      ignore
        (Degrade.restore ~recover_after:2 { snap with Degrade.s_count = 3 }))

(* --- feed ingest guard ---------------------------------------------------- *)

let test_of_loads_rejects_nonfinite () =
  let ok = [| Array.make 4 1e6; Array.make 4 2e6 |] in
  ignore (Feed.of_loads ok ~seed:1);
  List.iter
    (fun (label, bad) ->
      let loads = [| Array.make 4 1e6; bad |] in
      match Feed.of_loads loads ~seed:1 with
      | _ -> Alcotest.fail (label ^ " accepted")
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (label ^ " names the entry") true
            (String.length msg > 0
            && msg = "Feed.of_loads: non-finite load at bin 1 row 2"))
    [
      ("nan", Array.init 4 (fun r -> if r = 2 then Float.nan else 1e6));
      ("inf", Array.init 4 (fun r -> if r = 2 then Float.infinity else 1e6));
      ( "-inf",
        Array.init 4 (fun r -> if r = 2 then Float.neg_infinity else 1e6) );
    ]

(* --- circuit breaker ------------------------------------------------------ *)

let drain feed =
  let states = ref [] and delivered = ref [] in
  let rec loop () =
    match Feed.next feed with
    | None -> ()
    | Some (loads, missing) ->
        states := Feed.breaker_state feed :: !states;
        delivered := (Array.copy loads, Array.copy missing) :: !delivered;
        loop ()
  in
  loop ();
  (List.rev !states, List.rev !delivered)

let test_breaker_opens_and_probes () =
  (* Every poll dropped: every bin is faulted, so the breaker opens after
     [open_after] bins and then cycles carry/probe/reopen forever. With no
     clean bin ever delivered there is nothing to carry, so carried = 0 and
     the faulted polls flow through for the engine's imputation to absorb. *)
  let tel = Telemetry.create () in
  let loads = Array.make 12 (Array.make 6 1e6) in
  let feed =
    Feed.of_loads ~drop_rate:0.99 ~telemetry:tel
      ~breaker:{ open_after = 2; cooldown = 3; fault_frac = 0.5 }
      loads ~seed:42
  in
  let states, _ = drain feed in
  Alcotest.(check int) "all bins delivered" 12 (List.length states);
  Alcotest.(check int) "opened" 3 (Telemetry.count tel "feed.breaker.opened");
  Alcotest.(check int) "probes" 2 (Telemetry.count tel "feed.breaker.probes");
  Alcotest.(check int) "reclosed" 0
    (Telemetry.count tel "feed.breaker.reclosed");
  Alcotest.(check int) "nothing to carry" 0
    (Telemetry.count tel "feed.breaker.carried");
  (* bin 6 and bin 10 are the half-open probes (state [`Open 0] going in). *)
  List.iteri
    (fun i st ->
      if i = 5 || i = 9 then
        Alcotest.(check bool)
          (Printf.sprintf "bin %d reopened" i)
          true
          (st = Some (`Open 3)))
    states

let test_breaker_recloses () =
  (* A fault burst that ends: drops open the breaker, a clean probe
     recloses it. The drop pattern is seed-driven, so scan a small seed
     range for one whose pattern exercises the full open -> carry -> probe
     -> reclose cycle (deterministically — the scan always lands on the
     same seed), then validate that run. *)
  let loads = Array.make 20 (Array.make 6 1e6) in
  let run seed =
    let tel = Telemetry.create () in
    let feed =
      Feed.of_loads ~drop_rate:0.45 ~telemetry:tel
        ~breaker:{ open_after = 2; cooldown = 2; fault_frac = 0.3 }
        loads ~seed
    in
    let states, delivered = drain feed in
    (tel, states, delivered)
  in
  let rec find seed =
    if seed > 63 then Alcotest.fail "no reclosing seed in 0..63"
    else
      let tel, states, delivered = run seed in
      if
        Telemetry.count tel "feed.breaker.opened" >= 1
        && Telemetry.count tel "feed.breaker.reclosed" >= 1
      then (tel, states, delivered)
      else find (seed + 1)
  in
  let tel, states, delivered = find 0 in
  Alcotest.(check bool) "carried bins delivered" true
    (Telemetry.count tel "feed.breaker.carried" >= 1);
  (* Carried bins present as fully-polled: some delivered bin has all-false
     missing flags while the breaker is open — the engine sees a plausible
     bin, not a hole. *)
  let carried_clean =
    List.exists2
      (fun st (_, missing) ->
        match st with
        | Some (`Open _) -> Array.for_all not missing
        | _ -> false)
      states delivered
  in
  Alcotest.(check bool) "carried bins fully polled" true carried_clean

let breaker_skip_prop (k, seed) =
  (* The breaker is replay-derived: a fresh feed fast-forwarded past k bins
     is in the identical state, and delivers the identical remainder, as
     the feed that delivered them. *)
  let loads = Array.make 16 (Array.make 5 2e6) in
  let k = k mod 16 in
  let mk () =
    Feed.of_loads ~drop_rate:0.4 ~corrupt_rate:0.2
      ~breaker:{ open_after = 2; cooldown = 3; fault_frac = 0.25 }
      loads ~seed
  in
  let live = mk () in
  for _ = 1 to k do
    ignore (Feed.next live)
  done;
  let resumed = mk () in
  Feed.skip resumed k;
  let same = ref (Feed.breaker_state live = Feed.breaker_state resumed) in
  let rec loop () =
    match (Feed.next live, Feed.next resumed) with
    | None, None -> ()
    | Some (a, ma), Some (b, mb) ->
        same :=
          !same && a = b && ma = mb
          && Feed.breaker_state live = Feed.breaker_state resumed;
        loop ()
    | _ -> same := false
  in
  loop ();
  !same

let qcheck_breaker_skip =
  QCheck.Test.make ~count:40
    ~name:"breaker state is replay-derived (skip = deliver)"
    QCheck.(pair (int_range 0 100) (int_range 0 1000))
    breaker_skip_prop

(* --- anomaly-gated refits ------------------------------------------------- *)

let flash_timeline ~graph ~bins ~at ~boost seed =
  let base = base_series ~graph ~bins seed in
  let events =
    [ Schedule.Flash_crowd { node = "be"; at; duration = 12; boost } ]
  in
  Timeline.compile ~graph ~base { seed; events }

let rel_l2 a b =
  let num = ref 0. and den = ref 0. in
  let n = Tm.size a in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let d = Tm.get a i j -. Tm.get b i j in
      num := !num +. (d *. d);
      let t = Tm.get b i j in
      den := !den +. (t *. t)
    done
  done;
  sqrt (!num /. Float.max !den 1e-30)

let test_gated_refit_post_attack () =
  (* The acceptance property: with refit gating on, the attack bins are
     quarantined out of the stable-fP window, so the post-attack estimates
     are no worse — strictly better here — than the ungated run whose fit
     was poisoned by the attack. *)
  let graph = Topologies.geant_like () in
  let bins = 96 and at = 48 in
  let tl = flash_timeline ~graph ~bins ~at ~boost:4. 7 in
  let run ~gate =
    let tel = Telemetry.create () in
    let c = Engine.default_config (Timeline.base_routing tl) binning in
    let c =
      { c with Engine.refit_every = 8; window = 32; gate_refits = gate }
    in
    let engine = Engine.create ~telemetry:tel c in
    let feed =
      Runner.feed ~drop_rate:0.02 ~corrupt_rate:0.01 tl ~seed:7
    in
    let seg = Runner.play engine feed tl in
    (seg.Runner.estimates, tel)
  in
  let est_off, _ = run ~gate:false in
  let est_on, tel_on = run ~gate:true in
  Alcotest.(check bool) "gate fired" true
    (Telemetry.count tel_on "quarantine.bins" > 0);
  Alcotest.(check bool) "gated refits excluded bins" true
    (Telemetry.count tel_on "quarantine.excluded" > 0);
  let post lo est =
    let s = ref 0. in
    for t = lo to bins - 1 do
      s := !s +. rel_l2 est.(t) (Series.tm tl.Timeline.series t)
    done;
    !s /. float_of_int (bins - lo)
  in
  let gated = post (at + 12) est_on and ungated = post (at + 12) est_off in
  Alcotest.(check bool)
    (Printf.sprintf "post-attack error gated (%.4f) <= ungated (%.4f)" gated
       ungated)
    true (gated <= ungated)

let test_quarantine_escape_hatch () =
  (* A gate threshold low enough to flag everything: the quarantine streak
     hits the limit and the escape hatch forces a full-window refit instead
     of letting the fit starve, clearing the flags. *)
  let graph = Topologies.abilene_like () in
  let bins = 48 in
  let base = base_series ~graph ~bins 3 in
  let tl = Timeline.compile ~graph ~base { seed = 3; events = [] } in
  let tel = Telemetry.create () in
  let c = Engine.default_config (Timeline.base_routing tl) binning in
  let c =
    {
      c with
      Engine.refit_every = 4;
      window = 24;
      gate_refits = true;
      gate_threshold = 0.01;
      quarantine_limit = 6;
    }
  in
  let engine = Engine.create ~telemetry:tel c in
  let seg = Runner.play engine (Runner.feed tl ~seed:3) tl in
  Alcotest.(check int) "all bins stepped" bins
    (Array.length seg.Runner.estimates);
  Alcotest.(check bool) "everything quarantined" true
    (Telemetry.count tel "quarantine.bins" > bins / 2);
  Alcotest.(check bool) "escape hatch fired" true
    (Telemetry.count tel "quarantine.forced_refit" >= 1);
  Alcotest.(check bool) "fits still happened" true
    (Telemetry.count tel "refit.count" >= 1)

(* --- epoch-aware priors --------------------------------------------------- *)

let test_epoch_refit_after_routing_change () =
  (* A link failure mid-stream with [epoch_refit = Some 2]: two bins after
     the swap the engine refits over post-change bins only, records the
     level-preserving Epoch_refit note, and bumps the counters. *)
  let graph = Topologies.abilene_like () in
  let bins = 36 in
  let base = base_series ~family:Tm_family.Ic ~graph ~bins 5 in
  let events =
    [ Schedule.Link_fail { a = "KSCY"; b = "IPLS"; at = 18; duration = None } ]
  in
  let tl = Timeline.compile ~graph ~base { seed = 5; events } in
  let tel = Telemetry.create () in
  let c = Engine.default_config (Timeline.base_routing tl) binning in
  let c =
    { c with Engine.refit_every = 6; window = 18; epoch_refit = Some 2 }
  in
  let engine = Engine.create ~telemetry:tel c in
  ignore (Runner.play engine (Runner.feed tl ~seed:5) tl);
  Alcotest.(check int) "epoch refit scheduled" 1
    (Telemetry.count tel "refit.epoch_scheduled");
  Alcotest.(check int) "epoch refit fired" 1
    (Telemetry.count tel "refit.epoch");
  let notes =
    List.filter
      (fun (t : Degrade.transition) -> t.Degrade.reason = Degrade.Epoch_refit)
      (Engine.transitions engine)
  in
  Alcotest.(check int) "one Epoch_refit note" 1 (List.length notes);
  let note = List.hd notes in
  Alcotest.(check int) "noted at the firing bin" 19 note.Degrade.bin;
  Alcotest.(check bool) "level-preserving" true
    (note.Degrade.from_ = note.Degrade.to_)

(* --- supervised crash recovery -------------------------------------------- *)

let shard_graph = Topologies.abilene_like ()

let shard_routing = Ic_topology.Routing.build shard_graph

let shard_config () =
  {
    (Engine.default_config shard_routing binning) with
    Engine.refit_every = 6;
    window = 12;
    recover_after = 3;
  }

let shard_series ~bins ~seed =
  let spec =
    {
      Ic_core.Synth.default_spec with
      nodes = Graph.node_count shard_graph;
      binning;
      bins;
      mean_total_bytes = 1e9;
    }
  in
  (Ic_core.Synth.generate spec (Rng.create seed)).Ic_core.Synth.series

let mk_spec ?(name = "s0") ~bins ~seed () =
  {
    Shard.name;
    config = shard_config ();
    feed =
      Feed.create ~noise_sigma:0.01 ~drop_rate:0.05 shard_routing
        (shard_series ~bins ~seed)
        ~seed:(seed + 100);
  }

let solo_estimates ~bins ~seed =
  let spec = mk_spec ~bins ~seed () in
  let engine = Engine.create spec.Shard.config in
  let out = ref [] in
  let rec loop () =
    match Feed.next spec.Shard.feed with
    | None -> ()
    | Some (loads, missing) ->
        out := (Engine.step engine ~loads ~missing).Engine.estimate :: !out;
        loop ()
  in
  loop ();
  Array.of_list (List.rev !out)

let test_supervised_restart_bit_identical () =
  (* One injected crash: the supervisor restores the engine from its
     per-bin snapshot, waits out the backoff, retries the same observation
     — and the results are bit-identical to a run that never crashed. *)
  let bins = 16 in
  let chaos _name bin attempt = bin = 5 && attempt = 1 in
  let results, health, restarts, counters =
    Pool.with_pool ~jobs:2 (fun pool ->
        let fleet =
          Shard.create ~pool ~supervise:Shard.default_supervise ~chaos
            [ mk_spec ~bins ~seed:21 () ]
        in
        let r = Shard.run ~round_bins:4 fleet in
        (r, Shard.health fleet, Shard.restarts fleet,
         Shard.merged_counters fleet))
  in
  let _, (r : Replay.result) = List.hd results in
  Alcotest.(check bool) "bit-identical to crash-free" true
    (Replay.bit_identical r.Replay.estimates (solo_estimates ~bins ~seed:21));
  Alcotest.(check bool) "fleet healthy" true (health = `Ok);
  Alcotest.(check (list (pair string int))) "one restart" [ ("s0", 1) ]
    restarts;
  let count name =
    try List.assoc name counters with Not_found -> 0
  in
  Alcotest.(check int) "crash counted" 1 (count "supervisor.crashes");
  Alcotest.(check int) "restart counted" 1 (count "supervisor.restarts");
  Alcotest.(check int) "one backoff bin" 1 (count "supervisor.backoff.bins");
  Alcotest.(check int) "no give-up" 0 (count "supervisor.gave_up")

let test_supervisor_backoff_doubles () =
  (* Crash the same bin three times, succeed on the fourth try: backoffs
     1, 2, 4 budget bins (base 1, doubling), all within max_restarts = 3,
     and the stream still finishes bit-identical. *)
  let bins = 14 in
  let chaos _name bin attempt = bin = 4 && attempt <= 3 in
  let results, health, counters =
    Pool.with_pool ~jobs:1 (fun pool ->
        let fleet =
          Shard.create ~pool ~supervise:Shard.default_supervise ~chaos
            [ mk_spec ~bins ~seed:22 () ]
        in
        let r = Shard.run ~round_bins:4 fleet in
        (r, Shard.health fleet, Shard.merged_counters fleet))
  in
  let _, (r : Replay.result) = List.hd results in
  Alcotest.(check bool) "finished bit-identical" true
    (Replay.bit_identical r.Replay.estimates (solo_estimates ~bins ~seed:22));
  Alcotest.(check bool) "still healthy" true (health = `Ok);
  let count name = try List.assoc name counters with Not_found -> 0 in
  Alcotest.(check int) "three crashes" 3 (count "supervisor.crashes");
  Alcotest.(check int) "backoff 1+2+4" 7 (count "supervisor.backoff.bins")

let test_supervisor_gives_up () =
  (* A permanently crashing bin: after max_restarts the shard gives up —
     a degraded verdict with results up to the last good bin, never a
     hang or a crash loop. *)
  let bins = 12 in
  let chaos _name bin _attempt = bin = 3 in
  let results, health, counters =
    Pool.with_pool ~jobs:2 (fun pool ->
        let fleet =
          Shard.create ~pool
            ~supervise:
              { Shard.max_restarts = 2; backoff_base = 1; backoff_cap = 4 }
            ~chaos
            [ mk_spec ~name:"dying" ~bins ~seed:23 () ]
        in
        let r = Shard.run ~round_bins:4 fleet in
        (r, Shard.health fleet, Shard.merged_counters fleet))
  in
  let _, (r : Replay.result) = List.hd results in
  Alcotest.(check int) "stopped at the crashing bin" 3
    (Array.length r.Replay.estimates);
  Alcotest.(check bool) "degraded verdict" true
    (health = `Degraded [ "dying" ]);
  let count name = try List.assoc name counters with Not_found -> 0 in
  Alcotest.(check int) "gave up once" 1 (count "supervisor.gave_up");
  Alcotest.(check int) "crashes = restarts allowed + 1" 3
    (count "supervisor.crashes")

let supervisor_resume_prop (kill_at, seed) =
  (* Kill/resume straddling a supervised crash at random points: the
     resumed fleet — restart counts, backoff, pending retry included —
     finishes bit-identical to the uninterrupted supervised run. *)
  let bins = 14 in
  let kill_at = 1 + (kill_at mod (bins - 1)) in
  let chaos _name bin attempt = bin = 6 && attempt = 1 in
  let supervise =
    { Shard.max_restarts = 3; backoff_base = 2; backoff_cap = 8 }
  in
  let path = Filename.temp_file "ic-resilience" ".fleet" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Pool.with_pool ~jobs:1 (fun pool ->
          let full =
            let fleet =
              Shard.create ~pool ~supervise ~chaos
                [ mk_spec ~bins ~seed () ]
            in
            let r = Shard.run ~round_bins:4 fleet in
            (snd (List.hd r)).Replay.estimates
          in
          let head =
            let fleet =
              Shard.create ~pool ~supervise ~chaos
                [ mk_spec ~bins ~seed () ]
            in
            let r = Shard.run ~max_bins:kill_at ~round_bins:4 fleet in
            Shard.save ~path fleet;
            (snd (List.hd r)).Replay.estimates
          in
          match
            Shard.load ~supervise ~chaos ~path ~pool
              [ mk_spec ~bins ~seed () ]
          with
          | Error e -> Alcotest.fail e
          | Ok resumed ->
              let r = Shard.run ~round_bins:4 resumed in
              let tail = (snd (List.hd r)).Replay.estimates in
              Replay.bit_identical (Array.append head tail) full))

let qcheck_supervisor_resume =
  QCheck.Test.make ~count:10
    ~name:"supervised kill/resume is bit-identical (random kill points)"
    QCheck.(pair (int_range 0 100) (int_range 0 1000))
    supervisor_resume_prop

(* --- full-stack kill/resume ----------------------------------------------- *)

let self_heal_resume_prop (kill_at, seed) =
  (* The acceptance scenario: refit gating on, a breaker on a faulting
     feed, a topology epoch — killed at a random bin and resumed. The
     quarantine flags and epoch schedule ride the checkpoint; the breaker
     state is rebuilt by the skip; the estimates must be bit-identical. *)
  let graph = Topologies.abilene_like () in
  let bins = 30 in
  let kill_at = 1 + (kill_at mod (bins - 1)) in
  let base = base_series ~graph ~bins seed in
  let events =
    [
      Schedule.Link_fail { a = "KSCY"; b = "IPLS"; at = 10; duration = Some 8 };
      Schedule.Flash_crowd { node = "HSTN"; at = 14; duration = 6; boost = 5. };
    ]
  in
  let tl = Timeline.compile ~graph ~base { seed; events } in
  let config =
    let c = Engine.default_config (Timeline.base_routing tl) binning in
    {
      c with
      Engine.refit_every = 6;
      window = 18;
      recover_after = 3;
      gate_refits = true;
      gate_threshold = 3.;
      quarantine_limit = 4;
      epoch_refit = Some 2;
    }
  in
  let breaker = { Feed.open_after = 2; cooldown = 3; fault_frac = 0.3 } in
  let mk_feed () =
    Runner.feed ~drop_rate:0.15 ~corrupt_rate:0.05 ~breaker tl ~seed
  in
  let full =
    let engine = Engine.create config in
    Runner.play engine (mk_feed ()) tl
  in
  let path = Filename.temp_file "ic-resilience" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let engine0 = Engine.create config in
      let head = Runner.play ~upto:kill_at engine0 (mk_feed ()) tl in
      Checkpoint.save ~path engine0;
      match Checkpoint.load ~path ~config with
      | Error e -> Alcotest.fail e
      | Ok engine1 ->
          let feed = mk_feed () in
          Feed.skip feed kill_at;
          Runner.resume_routing engine1 tl;
          let tail = Runner.play engine1 feed tl in
          Replay.bit_identical
            (Array.append head.Runner.estimates tail.Runner.estimates)
            full.Runner.estimates)

let qcheck_self_heal_resume =
  QCheck.Test.make ~count:12
    ~name:
      "kill/resume with quarantine + breaker + epoch is bit-identical"
    QCheck.(pair (int_range 0 100) (int_range 0 1000))
    self_heal_resume_prop

(* --- estimator-plugin kill/resume ----------------------------------------- *)

let estimator_resume_prop (kill_at, seed) =
  (* The self-heal scenario re-run with every registry family plugged into
     the engine (["ic"] rides its native path, the rest dispatch through
     the plugin seam): quarantine gating on, a breaker on a faulting feed,
     a live link failure in flight — killed at a random bin. A plugin's
     slab state (e.g. integer-tomography's running moments) rides the
     checkpoint, so the resumed stream must stay bit-identical with no
     per-family test code. *)
  let graph = Topologies.abilene_like () in
  let bins = 24 in
  let kill_at = 1 + (kill_at mod (bins - 1)) in
  let base = base_series ~graph ~bins seed in
  let events =
    [ Schedule.Link_fail { a = "KSCY"; b = "IPLS"; at = 9; duration = Some 6 } ]
  in
  let tl = Timeline.compile ~graph ~base { seed; events } in
  let breaker = { Feed.open_after = 2; cooldown = 3; fault_frac = 0.3 } in
  let mk_feed () =
    Runner.feed ~drop_rate:0.1 ~corrupt_rate:0.05 ~breaker tl ~seed
  in
  List.for_all
    (fun name ->
      let config =
        let c = Engine.default_config (Timeline.base_routing tl) binning in
        {
          c with
          Engine.estimator = name;
          refit_every = 6;
          window = 18;
          recover_after = 3;
          gate_refits = true;
          gate_threshold = 3.;
          quarantine_limit = 4;
        }
      in
      let full =
        let engine = Engine.create config in
        Runner.play engine (mk_feed ()) tl
      in
      let path = Filename.temp_file "ic-est-resume" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let engine0 = Engine.create config in
          let head = Runner.play ~upto:kill_at engine0 (mk_feed ()) tl in
          Checkpoint.save ~path engine0;
          match Checkpoint.load ~path ~config with
          | Error e -> Alcotest.fail e
          | Ok engine1 ->
              let feed = mk_feed () in
              Feed.skip feed kill_at;
              Runner.resume_routing engine1 tl;
              let tail = Runner.play engine1 feed tl in
              Replay.bit_identical
                (Array.append head.Runner.estimates tail.Runner.estimates)
                full.Runner.estimates))
    (Ic_estimation.Estimator.names ())

let qcheck_estimator_resume =
  QCheck.Test.make ~count:8
    ~name:
      "every registry estimator kill/resumes bit-identically in the engine"
    QCheck.(pair (int_range 0 100) (int_range 0 1000))
    estimator_resume_prop

(* --- robust detection ----------------------------------------------------- *)

let test_scale_validation () =
  let series = base_series ~graph:(Topologies.abilene_like ()) ~bins:8 1 in
  let fitted = Ic_core.Fit.fit_stable_fp series in
  let detect scale =
    Anomaly.detect ~scale fitted.Ic_core.Fit.params series
  in
  List.iter
    (fun bad ->
      match detect bad with
      | _ -> Alcotest.fail "invalid scale accepted"
      | exception Invalid_argument _ -> ())
    [
      Anomaly.Rolling_quantile { window = 0; q = 0.25 };
      Anomaly.Rolling_quantile { window = 12; q = 0. };
      Anomaly.Rolling_quantile { window = 12; q = 1. };
    ];
  (* [Mad] is the default: passing it explicitly is the old behavior. *)
  Alcotest.(check bool) "Mad = default" true
    (detect Anomaly.Mad = Anomaly.detect fitted.Ic_core.Fit.params series)

let test_bimodal_blindness_recovered () =
  (* The pinned regression for the documented blind spot: on a bimodal
     base (EXPERIMENTS.md: tp = 0 at any magnitude up to x60) the MAD
     scale misses a x12 DDoS entirely, while the rolling-quantile scale
     detects it at its onset bin from the same estimates. *)
  let graph = Topologies.geant_like () in
  let bins = 96 in
  let base = base_series ~graph ~bins 7 in
  let events =
    [
      Schedule.Ddos { victim = "ie"; at = 48; duration = 12; magnitude = 12. };
      Schedule.Flash_crowd { node = "be"; at = 72; duration = 12; boost = 3. };
    ]
  in
  let tl = Timeline.compile ~graph ~base { seed = 7; events } in
  let config =
    let c = Engine.default_config (Timeline.base_routing tl) binning in
    { c with Engine.refit_every = 16; window = 64 }
  in
  let engine = Engine.create config in
  let feed = Runner.feed ~drop_rate:0.02 ~corrupt_rate:0.01 tl ~seed:7 in
  let seg = Runner.play engine feed tl in
  let estimates = seg.Runner.estimates in
  let ddos_ttd (s : Score.t) =
    match
      List.find_opt
        (fun (e : Score.event_score) -> e.Score.kind = "ddos")
        s.Score.events
    with
    | Some e -> e.Score.time_to_detect
    | None -> Alcotest.fail "no ddos event scored"
  in
  let mad = Score.score tl ~estimates in
  Alcotest.(check int) "MAD is blind (tp = 0)" 0
    mad.Score.evaluation.Anomaly.true_positives;
  Alcotest.(check bool) "MAD misses the ddos" true (ddos_ttd mad = None);
  let robust = Score.score ~scale:Anomaly.robust_scale tl ~estimates in
  Alcotest.(check bool) "robust scale detects (tp > 0)" true
    (robust.Score.evaluation.Anomaly.true_positives > 0);
  (match ddos_ttd robust with
  | Some ttd ->
      Alcotest.(check bool)
        (Printf.sprintf "ddos ttd %d <= 1" ttd)
        true (ttd <= 1)
  | None -> Alcotest.fail "robust scale missed the ddos")

let () =
  Alcotest.run "ic_resilience"
    [
      ( "degrade-bounds",
        [ Alcotest.test_case "retention cap" `Quick test_degrade_retention_cap ]
      );
      ( "feed-ingest",
        [
          Alcotest.test_case "of_loads rejects non-finite" `Quick
            test_of_loads_rejects_nonfinite;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens and probes" `Quick
            test_breaker_opens_and_probes;
          Alcotest.test_case "recloses after a burst" `Quick
            test_breaker_recloses;
          QCheck_alcotest.to_alcotest qcheck_breaker_skip;
        ] );
      ( "gated-refits",
        [
          Alcotest.test_case "post-attack error not worse" `Slow
            test_gated_refit_post_attack;
          Alcotest.test_case "escape hatch" `Quick
            test_quarantine_escape_hatch;
        ] );
      ( "epoch-priors",
        [
          Alcotest.test_case "early refit after set_routing" `Quick
            test_epoch_refit_after_routing_change;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "restart is bit-identical" `Quick
            test_supervised_restart_bit_identical;
          Alcotest.test_case "backoff doubles to the cap" `Quick
            test_supervisor_backoff_doubles;
          Alcotest.test_case "gives up, never hangs" `Quick
            test_supervisor_gives_up;
          QCheck_alcotest.to_alcotest qcheck_supervisor_resume;
        ] );
      ( "kill-resume",
        [
          QCheck_alcotest.to_alcotest qcheck_self_heal_resume;
          QCheck_alcotest.to_alcotest qcheck_estimator_resume;
        ] );
      ( "robust-detection",
        [
          Alcotest.test_case "scale validation" `Quick test_scale_validation;
          Alcotest.test_case "bimodal blindness recovered" `Slow
            test_bimodal_blindness_recovered;
        ] );
    ]
