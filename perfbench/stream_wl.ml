(* The stream workloads: a Géant replay driven the way `ic-lab
   stream` drives it — Engine.create on default_config, then Engine.step
   once per bin. The polls (with their faults) are generated before any
   timing starts; the engine sees only them.

   stream-ic           the production default path: native ic, cold start,
                       a refit every 288 bins over a 288-bin window.
   stream-tomogravity  the same inputs through the registry plugin path
                       (estimator = "tomogravity"): no refits, and every bin
                       rebuilds the Gram matrix and its Cholesky factor.

   The traffic is the repository's fixed three-week Géant dataset; the seed
   draws the poll noise, drops and corruptions. A seeded dataset would move
   the ladder rungs and refit costs by up to 2x between seeds, which no
   bound could absorb. *)

module Engine = Ic_runtime.Engine
module Checkpoint = Ic_runtime.Checkpoint
module Feed = Ic_runtime.Feed
module Telemetry = Ic_runtime.Telemetry
module Routing = Ic_topology.Routing
module Trace = Ic_obs.Trace
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series

let weeks = 3
let noise_sigma = 0.01
let drop_rate = 0.02
let corrupt_rate = 0.01
let calib_stride = 16
let setup_reps = 101

(* The determinism self-test replays this prefix; it covers the first
   refit (bin 288 on the default cadence). *)
let prefix_bins = 320

(* On bins whose every poll arrived clean, each estimate row must sum to the
   polled ingress within this share of the bin's total ingress (IPF stops
   at a relative marginal error of 1e-9). A bin where IPF ran into its
   iteration cap ([Ipf.fit]'s default, seen through the engine's
   ipf.iterations counter) has not converged and cannot meet it: such bins
   are counted and printed, not checked. *)
let row_tol = 1e-6
let ipf_cap = 200

type inputs = {
  graph : Ic_topology.Graph.t;
  series : Series.t;
  routing : Routing.t;
  polls : (float array * bool array) array;
  clean : bool array;  (* no poll of the bin dropped or corrupt *)
  ingress_rows : int array;
  truth : Tm.t array;
}

(* The seed's polls over the dataset: noise, drops and corruptions. *)
let with_feed inputs ~seed =
  let feed =
    Feed.create ~noise_sigma ~drop_rate ~corrupt_rate inputs.routing
      inputs.series ~seed
  in
  let polls =
    Array.init (Series.length inputs.series) (fun _ ->
        match Feed.next feed with
        | Some p -> p
        | None -> failwith "perfbench: feed ended early")
  in
  let clean =
    Array.map
      (fun (loads, missing) ->
        (not (Array.mem true missing))
        && Array.for_all (fun v -> Float.is_finite v && v >= 0.) loads)
      polls
  in
  { inputs with polls; clean }

let make_inputs ~seed =
  let ds = Ic_datasets.Geant.generate ~weeks () in
  let series = ds.Ic_datasets.Dataset.series in
  let routing = Routing.build ds.graph in
  let bins = Series.length series in
  with_feed ~seed
    {
      graph = ds.graph;
      series;
      routing;
      polls = [||];
      clean = [||];
      ingress_rows =
        Array.init
          (Ic_topology.Graph.node_count ds.graph)
          (Routing.ingress_row routing);
      truth = Array.init bins (Series.tm series);
    }

let make_config ~estimator inputs routing =
  {
    (Engine.default_config routing inputs.series.Series.binning) with
    Engine.estimator;
  }

(* --- checks ------------------------------------------------------------- *)

let finite_nonneg tm =
  Array.for_all (fun v -> Float.is_finite v && v >= 0.) (Tm.unsafe_data tm)

(* Largest |row sum - polled ingress| over the bin's total ingress. *)
let row_err inputs tm loads =
  let n = Tm.size tm in
  let total = ref 0. and worst = ref 0. in
  for i = 0 to n - 1 do
    let target = loads.(inputs.ingress_rows.(i)) in
    total := !total +. target;
    let s = ref 0. in
    for j = 0 to n - 1 do
      s := !s +. Tm.get tm i j
    done;
    worst := Float.max !worst (Float.abs (!s -. target))
  done;
  if !total > 0. then !worst /. !total else !worst

let rel_l2 est truth =
  let a = Tm.unsafe_data est and b = Tm.unsafe_data truth in
  let num = ref 0. and den = ref 0. in
  for k = 0 to Array.length a - 1 do
    let d = a.(k) -. b.(k) in
    num := !num +. (d *. d);
    den := !den +. (b.(k) *. b.(k))
  done;
  if !den > 0. then sqrt !num /. sqrt !den else 0.

let same_output (a : Engine.output) (b : Engine.output) =
  a.level = b.level && a.clamped = b.clamped
  && Ic_runtime.Replay.bit_identical [| a.estimate |] [| b.estimate |]

(* --- exact counts --------------------------------------------------------- *)

(* The counts a later change may cite as exact: identical for one seed,
   different for another. *)
type counts = {
  bins : int;
  refits : int;
  fp_hit : int;
  fp_update : int;
  fp_refactorize : int;
  ipf_iterations : int;
  clamped : int;
  transitions : int;
  alloc_words : float;  (* allocated inside Engine.step, all bins *)
  rel_l2_sum : float;
  state_words : int;  (* Obj.reachable_words of the engine *)
}

let counts_of engine ~bins ~alloc_words ~rel_l2_sum =
  let c = Telemetry.count (Engine.telemetry engine) in
  {
    bins;
    refits = c "refit.count";
    fp_hit = c "fastpath.hit";
    fp_update = c "fastpath.update";
    fp_refactorize = c "fastpath.refactorize";
    ipf_iterations = c "ipf.iterations";
    clamped = c "estimate.clamped_entries";
    transitions = List.length (Engine.transitions engine);
    alloc_words;
    rel_l2_sum;
    state_words = Obj.reachable_words (Obj.repr engine);
  }

let alloc_kb_per_bin c = c.alloc_words *. 8. /. 1024. /. float_of_int c.bins
let rel_l2_mean c = c.rel_l2_sum /. float_of_int c.bins
let state_mb c = float_of_int (c.state_words * 8) /. 1e6

let print_counts label c =
  Printf.printf
    "  %s: bins %d, refit.count %d, fastpath hit/update/refactorize \
     %d/%d/%d, ipf.iterations %d, clamped %d, degrade.transitions %d, \
     alloc_kb_per_bin %.4f, rel_l2_mean %.6f, state_mb %.6f\n"
    label c.bins c.refits c.fp_hit c.fp_update c.fp_refactorize
    c.ipf_iterations c.clamped c.transitions (alloc_kb_per_bin c)
    (rel_l2_mean c) (state_mb c)

(* Words allocated by this domain so far, minor and direct-major. The minor
   count comes from Gc.minor_words: Gc.counters' own minor figure drifts
   with the minor heap's fill level. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* What two back-to-back [allocated] calls allocate themselves. *)
let alloc_offset =
  let a0 = allocated () in
  let a1 = allocated () in
  a1 -. a0

(* --- one pass ------------------------------------------------------------ *)

type pass = {
  raw : float array;  (* ns per Engine.step *)
  norm : float array;
  cal : Calib.t;
  counts : counts;
  failed : int;
  gc_minor : int;
  gc_major : int;
  row_checked : int;
  max_row_err : float;
  ipf_capped : int;  (* clean bins skipped because IPF hit its cap *)
  prefix : counts option;  (* counts after [prefix_bins] bins *)
  stretch : (Engine.t, string) result option * int * Engine.output option array;
      (* the engine restored from a mid-run checkpoint, the bin it resumes
         at, and the original's outputs from there *)
}

(* Step a fresh engine over the first [bins] bins. With [hooks], take the
   prefix counts and a checkpoint at mid-run; both happen between steps,
   outside the timed calls. *)
let run_pass ?tracer ?(hooks = false) ~config ~inputs ~bins () =
  let engine = Engine.create ?tracer config in
  let cal = Calib.create ~stride:calib_stride () in
  let raw = Array.make bins 0. in
  let failed = ref 0 and alloc_words = ref 0. and rel_l2_sum = ref 0. in
  let row_checked = ref 0 and max_row_err = ref 0. and ipf_capped = ref 0 in
  let ipf_iterations () =
    Telemetry.count (Engine.telemetry engine) "ipf.iterations"
  in
  let prefix = ref None in
  let mid = bins / 2 in
  let stretch_len = min config.Engine.refit_every (bins - mid) in
  let restored = ref None in
  let originals = Array.make (if hooks then stretch_len else 0) None in
  let q0 = Gc.quick_stat () in
  for i = 0 to bins - 1 do
    if hooks && i = prefix_bins then
      prefix :=
        Some
          (counts_of engine ~bins:i ~alloc_words:!alloc_words
             ~rel_l2_sum:!rel_l2_sum);
    if hooks && i = mid then begin
      let path = Out.scratch_file "ckpt" in
      Checkpoint.save ~path engine;
      restored := Some (Checkpoint.load ~path ~config);
      Sys.remove path
    end;
    Calib.tick cal i;
    let loads, missing = inputs.polls.(i) in
    let ipf0 = ipf_iterations () in
    let a0 = allocated () in
    let t0 = Calib.now_ns () in
    let out =
      match tracer with
      | None -> (
          match Engine.step engine ~loads ~missing with
          | o -> Some o
          | exception _ -> None)
      | Some tr -> (
          match
            Trace.with_span tr "bench.step" (fun () ->
                Engine.step engine ~loads ~missing)
          with
          | o -> Some o
          | exception _ -> None)
    in
    let t1 = Calib.now_ns () in
    let a1 = allocated () in
    raw.(i) <- t1 -. t0;
    alloc_words := !alloc_words +. (a1 -. a0 -. alloc_offset);
    match out with
    | None -> incr failed
    | Some o ->
        let est = o.Engine.estimate in
        rel_l2_sum := !rel_l2_sum +. rel_l2 est inputs.truth.(i);
        let capped = ipf_iterations () - ipf0 >= ipf_cap in
        if inputs.clean.(i) && capped then incr ipf_capped;
        let rows_ok =
          (not inputs.clean.(i)) || capped
          || begin
               let e = row_err inputs est loads in
               incr row_checked;
               max_row_err := Float.max !max_row_err e;
               e <= row_tol
             end
        in
        if not (finite_nonneg est && rows_ok) then incr failed;
        if hooks && i >= mid && i < mid + stretch_len then
          originals.(i - mid) <- Some o
  done;
  let q1 = Gc.quick_stat () in
  {
    raw;
    norm = Calib.normalize cal raw;
    cal;
    counts =
      counts_of engine ~bins ~alloc_words:!alloc_words ~rel_l2_sum:!rel_l2_sum;
    failed = !failed;
    gc_minor = q1.minor_collections - q0.minor_collections;
    gc_major = q1.major_collections - q0.major_collections;
    row_checked = !row_checked;
    max_row_err = !max_row_err;
    ipf_capped = !ipf_capped;
    prefix = !prefix;
    stretch = (!restored, mid, originals);
  }

(* Step the restored copy over the stretch the original already ran and
   require bit-identical outputs. *)
let stretch_identical ~inputs (restored, mid, originals) =
  match restored with
  | None -> true (* no checkpoint taken in this pass *)
  | Some (Error e) ->
      Printf.printf "  checkpoint load failed: %s\n" e;
      false
  | Some (Ok copy) ->
      let ok = ref true in
      Array.iteri
        (fun k orig ->
          let loads, missing = inputs.polls.(mid + k) in
          match (orig, Engine.step copy ~loads ~missing) with
          | Some a, b -> if not (same_output a b) then ok := false
          | None, _ -> ok := false
          | exception _ -> ok := false)
        originals;
      !ok

(* --- the workload --------------------------------------------------------- *)

let throughput norm = float_of_int (Array.length norm) /. (Stat.sum norm /. 1e9)

let run ~name ~estimator ~seed ~seconds ~trace =
  let t_gen = Calib.now_ns () in
  let inputs = make_inputs ~seed in
  let bins = Array.length inputs.polls in
  let config = make_config ~estimator inputs inputs.routing in
  Printf.printf
    "workload %s: geant %d bins x %d PoPs, 5-min bins, estimator %s, drop \
     %.0f%%, corrupt %.0f%%, noise %.0f%%, one caller stepping one engine \
     (inputs generated in %.2f s)\n%!"
    name bins
    (Ic_topology.Graph.node_count inputs.graph)
    estimator (100. *. drop_rate) (100. *. corrupt_rate) (100. *. noise_sigma)
    ((Calib.now_ns () -. t_gen) /. 1e9);
  (* Set-up: Routing.build + Engine.create, repeated; the median counts. *)
  let setup_norm, setup_raw =
    let cal = Calib.create ~stride:1 () in
    let raw =
      Array.init setup_reps (fun i ->
          Calib.tick cal i;
          let t0 = Calib.now_ns () in
          let routing = Routing.build inputs.graph in
          let engine = Engine.create (make_config ~estimator inputs routing) in
          let dt = Calib.now_ns () -. t0 in
          ignore (Sys.opaque_identity engine);
          dt)
    in
    (Calib.normalize cal raw, raw)
  in
  (* Passes until the budget is spent, at least two for the tail below; the
     first carries the checkpoint and prefix hooks. Each starts from a
     collected heap, so the deterministic allocation puts its GC pauses at
     the same bins in every pass. *)
  let t_start = Calib.now_ns () in
  let pass ?hooks () =
    Gc.full_major ();
    run_pass ?hooks ~config ~inputs ~bins ()
  in
  let first = pass ~hooks:true () in
  let passes = ref [ first ] in
  while
    List.length !passes < 2 || Calib.now_ns () -. t_start < seconds *. 1e9
  do
    passes := pass () :: !passes
  done;
  let passes = List.rev !passes in
  let per_pass f = Stat.median (Array.of_list (List.map f passes)) in
  let tput = per_pass (fun p -> throughput p.norm) in
  let tput_raw = per_pass (fun p -> throughput p.raw) in
  let p50 = per_pass (fun p -> Stat.median p.norm) /. 1e3 in
  let p50_raw = per_pass (fun p -> Stat.median p.raw) /. 1e3 in
  (* Every pass replays identical work, so a bin's minimum over two passes
     drops host preemption (a few ms, on random bins) while refits and GC
     pauses, which recur at the same bins, stay. The tail is the median over
     every pair of passes: a minimum over more passes would read lower on a
     faster host, which runs more passes. *)
  let pair_tail f =
    let rec pairs = function
      | a :: rest ->
          List.map
            (fun b ->
              let a = f a and b = f b in
              Stat.tail (Array.init bins (fun i -> Float.min a.(i) b.(i))))
            rest
          @ pairs rest
      | [] -> []
    in
    Stat.median (Array.of_list (pairs passes)) /. 1e3
  in
  let tail = pair_tail (fun p -> p.norm) in
  let tail_raw = pair_tail (fun p -> p.raw) in
  let total_s = per_pass (fun p -> Stat.sum p.norm) /. 1e9 in
  let total_raw_s = per_pass (fun p -> Stat.sum p.raw) /. 1e9 in
  let calib_us = per_pass (fun p -> Calib.median_sample p.cal) /. 1e3 in
  let calib_whole_us = per_pass (fun p -> Calib.median_whole p.cal) /. 1e3 in
  let c = first.counts in
  (* Self-tests, outside every timed call. *)
  let stretch_ok = stretch_identical ~inputs first.stretch in
  let passes_agree = List.for_all (fun p -> p.counts = c) passes in
  let replay_prefix inputs =
    (run_pass ~config ~inputs ~bins:prefix_bins ()).counts
  in
  let again = replay_prefix inputs in
  let same_seed = first.prefix = Some again in
  let other = replay_prefix (with_feed inputs ~seed:(seed + 1)) in
  let other_seed_differs = first.prefix <> Some other in
  let step_failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
  let steps = List.fold_left (fun a p -> a + Array.length p.raw) 0 passes in
  let self_tests = [ stretch_ok; passes_agree; same_seed; other_seed_differs ] in
  let test_failed = List.length (List.filter not self_tests) in
  let attempted = steps + List.length self_tests in
  let failed = step_failed + test_failed in
  Printf.printf
    "record: %d pass(es) of %d bins, %d steps timed, calibration kernel raw \
     median %.1f us (nominal %.1f us), with the 4 MB read %.1f us (nominal \
     %.1f us), calibration every %d steps\n"
    (List.length passes) bins steps calib_us (Calib.nominal_ns /. 1e3)
    calib_whole_us
    ((Calib.nominal_ns +. Calib.nominal_far_ns) /. 1e3)
    calib_stride;
  Printf.printf "metrics (normalized; raw wall-clock beside):\n";
  Printf.printf "  %-14s %14.6f s      raw %.6f s  (median of %d set-ups: \
                 Routing.build + Engine.create)\n"
    "setup_s" (Stat.median setup_norm /. 1e9) (Stat.median setup_raw /. 1e9)
    setup_reps;
  Printf.printf "  %-14s %14.3f bins/s raw %.3f  (stepping total %.3f s, raw \
                 %.3f s)  [throughput_per_s]\n"
    "bins_per_s" tput tput_raw total_s total_raw_s;
  Printf.printf "  %-14s %14.3f us     raw %.3f  [latency_p50_us]\n"
    "step_p50_us" p50 p50_raw;
  Printf.printf
    "  %-14s %14.3f ms     raw %.3f  (11th slowest of %d steps, each its \
     minimum over a pair of passes; median over the %d pair(s) of %d \
     passes)  [latency_tail_us]\n"
    "step_tail_ms" (tail /. 1e3) (tail_raw /. 1e3) bins
    (List.length passes * (List.length passes - 1) / 2)
    (List.length passes);
  Printf.printf "  %-14s %14.6f ratio\n" "rel_l2_mean" (rel_l2_mean c);
  Printf.printf "  %-14s %14.6f MB\n" "state_mb" (state_mb c);
  Printf.printf "  %-14s %14.6f ratio  (%d failed of %d attempted)\n"
    "fail_frac"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  Printf.printf "checks:\n";
  Printf.printf
    "  every estimate finite and non-negative, clean-bin row sums within \
     %.0e of ingress (%d clean bins checked, max error %.2e; %d clean \
     bins skipped where IPF hit its %d-iteration cap): %d step failure(s)\n"
    row_tol
    (List.fold_left (fun a p -> a + p.row_checked) 0 passes)
    (List.fold_left (fun a p -> Float.max a p.max_row_err) 0. passes)
    (List.fold_left (fun a p -> a + p.ipf_capped) 0 passes)
    ipf_cap step_failed;
  Printf.printf
    "  checkpoint at bin %d, restored copy stepped %d bins beside the \
     original: %s\n"
    (let _, mid, _ = first.stretch in mid)
    (let _, _, o = first.stretch in Array.length o)
    (if stretch_ok then "bit-identical" else "DIFFERS");
  Printf.printf "  counts identical across passes: %s\n"
    (if passes_agree then "yes" else "NO");
  Printf.printf "  determinism (first %d bins): same seed identical: %s, seed \
                 %d differs: %s\n"
    prefix_bins
    (if same_seed then "yes" else "NO")
    (seed + 1)
    (if other_seed_differs then "yes" else "NO");
  print_counts "counts (per pass)" c;
  Option.iter (print_counts (Printf.sprintf "prefix %d bins, seed %d" prefix_bins seed)) first.prefix;
  print_counts (Printf.sprintf "prefix %d bins, seed %d" prefix_bins (seed + 1)) other;
  Printf.printf "  gc per pass: %d minor, %d major collections\n"
    first.gc_minor first.gc_major;
  let e2e =
    [
      Out.m "throughput_per_s" "1/s" tput;
      Out.m "latency_p50_us" "us" p50;
      Out.m "latency_tail_us" "us" tail;
      Out.m "rel_l2_mean" "ratio" (rel_l2_mean c);
      Out.m "state_mb" "MB" (state_mb c);
      Out.m "setup_s" "s" (Stat.median setup_norm /. 1e9);
    ]
  in
  let layers, trace_failed =
    if not trace then ([], 0)
    else begin
      let tracer =
        Trace.create ~capacity:((bins * 12) + 1024)
          ~clock:(fun () -> Calib.now_ns () *. 1e-9)
          ()
      in
      Gc.full_major ();
      let tp = run_pass ~tracer ~config ~inputs ~bins () in
      let ledger = Ledger.build ~root:"bench.step" (Trace.spans tracer) in
      let dropped = Trace.dropped tracer in
      let scale = Calib.phase_factor tp.cal in
      let nb = float_of_int bins in
      let per_bin layer = Ledger.self_ns ledger layer *. scale /. 1e3 /. nb in
      let prior = Array.map (fun x -> x *. scale /. 1e3) (Ledger.selfs ledger "engine.prior") in
      let refit_spans = Array.length (Ledger.selfs ledger "engine.refit") in
      let refit_ms =
        Ledger.self_ns ledger "engine.refit" *. scale /. 1e6
        /. float_of_int (max 1 refit_spans)
      in
      let lookups = c.fp_hit + c.fp_update + c.fp_refactorize in
      let traced_tput = throughput tp.norm in
      let overhead = 100. *. ((tput /. traced_tput) -. 1.) in
      Printf.printf
        "traced pass: %d bins, Trace.dropped %d, spans recorded %d, \
         calibration raw median %.1f us\n"
        bins dropped (Trace.recorded tracer)
        (Calib.median_sample tp.cal /. 1e3);
      Printf.printf
        "  tracing overhead: %.2f%% (traced %.3f bins/s vs untraced %.3f)\n"
        overhead traced_tput tput;
      Ledger.print ~per:(bins, "bin") ~scale ledger;
      Printf.printf
        "  engine.refit: %d refits, %.3f ms per refit (norm); fastpath hits \
         %d of %d lookups\n"
        refit_spans refit_ms c.fp_hit lookups;
      let layers =
        [
          Out.m "engine.step.self_us" "us/bin" (per_bin "engine.step");
          Out.m "engine.ingest_us" "us/bin" (per_bin "engine.ingest");
          Out.m "engine.prior_us" "us/bin" (per_bin "engine.prior");
          Out.m "engine.prior.p50_us" "us" (Stat.median prior);
          Out.m "engine.prior.tail_us" "us" (Stat.tail prior);
          Out.m "engine.estimate.self_us" "us/bin" (per_bin "engine.estimate");
          Out.m "tomogravity.gram_us" "us/bin" (per_bin "tomogravity.gram");
          Out.m "tomogravity.factorize_us" "us/bin"
            (per_bin "tomogravity.factorize");
          Out.m "tomogravity.solve_us" "us/bin" (per_bin "tomogravity.solve");
          Out.m "tomogravity.clamp_us" "us/bin" (per_bin "tomogravity.clamp");
          Out.m "engine.ipf_us" "us/bin" (per_bin "engine.ipf");
          Out.m "engine.refit_ms" "ms/refit" refit_ms;
          Out.m "refit.count" "count" (float_of_int c.refits);
          Out.m "fastpath.hit_ratio" "ratio"
            (float_of_int c.fp_hit /. float_of_int (max 1 lookups));
          Out.m "fastpath.refactorizations" "count"
            (float_of_int c.fp_refactorize);
          Out.m "ipf.iterations_per_bin" "1/bin"
            (float_of_int c.ipf_iterations /. nb);
          Out.m "estimate.clamped_per_bin" "1/bin" (float_of_int c.clamped /. nb);
          Out.m "degrade.transitions" "count" (float_of_int c.transitions);
          Out.m "alloc_kb_per_bin" "KB/bin" (alloc_kb_per_bin c);
          Out.m "gc.minor_per_1k_bins" "count/1k-bins"
            (1000. *. float_of_int first.gc_minor /. nb);
          Out.m "gc.major_per_1k_bins" "count/1k-bins"
            (1000. *. float_of_int first.gc_major /. nb);
          Out.m "ledger.unattributed_us" "us/op"
            (ledger.Ledger.unattributed_ns *. scale /. 1e3 /. nb);
          Out.m "trace.overhead_pct" "%" overhead;
        ]
      in
      let ok = dropped = 0 && Ledger.closes ledger && tp.failed = 0 in
      (layers, if ok then 0 else 1)
    end
  in
  if not trace then Printf.printf "Trace.dropped 0 (untraced run)\n";
  { Out.attempted = attempted + (if trace then 1 else 0); failed = failed + trace_failed; e2e; layers }
