(* Differential properties over random topologies: the parallel estimation
   paths must be bit-identical to the sequential ones on arbitrary graphs,
   not just the fixtures the other suites use, and every estimate must keep
   the invariants the estimation stack promises (finite, non-negative,
   marginals reimposed, link constraints met where no clamp fired).
   Topologies are rings (so routing always exists) with random extra
   chords, random sizes and IGP weights, all derived from a qcheck-supplied
   seed. *)

module Pool = Ic_parallel.Pool
module Tomogravity = Ic_estimation.Tomogravity
module Pipeline = Ic_estimation.Pipeline
module Graph = Ic_topology.Graph
module Routing = Ic_topology.Routing
module Tm = Ic_traffic.Tm
module Rng = Ic_prng.Rng

(* --- random topology ----------------------------------------------------- *)

let random_graph ~nodes ~chords ~seed =
  let names = Array.init nodes (fun i -> Printf.sprintf "n%02d" i) in
  let g = ref (Graph.create ~names) in
  for i = 0 to nodes - 1 do
    g := Graph.add_link !g i ((i + 1) mod nodes)
  done;
  let rng = Rng.create seed in
  let added = ref 0 and attempts = ref 0 in
  while !added < chords && !attempts < 4 * chords + 8 do
    incr attempts;
    let u = Rng.int rng nodes and v = Rng.int rng nodes in
    if u <> v && Graph.find_edge !g ~src:u ~dst:v = None then begin
      let weight = 1. +. float_of_int (Rng.int rng 3) in
      g := Graph.add_link ~weight !g u v;
      incr added
    end
  done;
  !g

let synth_on graph ~bins ~seed =
  let spec =
    {
      Ic_core.Synth.default_spec with
      nodes = Graph.node_count graph;
      binning = Ic_timeseries.Timebin.five_min;
      bins;
      mean_total_bytes = 5e8;
    }
  in
  (Ic_core.Synth.generate spec (Rng.create seed)).Ic_core.Synth.series

let tm_bits tm = Array.map Int64.bits_of_float (Tm.to_vector tm)

(* One random instance: graph, routing, per-bin loads and priors. *)
let instance ~nodes ~chords ~bins ~seed =
  let graph = random_graph ~nodes ~chords ~seed in
  let routing = Routing.build graph in
  let truth = synth_on graph ~bins ~seed:(seed + 1) in
  let prior = Ic_gravity.Gravity.of_series truth in
  let link_loads =
    Array.init bins (fun k ->
        Routing.link_loads routing (Tm.to_vector (Ic_traffic.Series.tm truth k)))
  in
  let priors = Array.init bins (fun k -> Ic_traffic.Series.tm prior k) in
  (routing, truth, prior, link_loads, priors)

(* --- properties ---------------------------------------------------------- *)

(* (nodes, chords, (bins, seed), jobs) *)
let gen_topology_case =
  QCheck2.Gen.(
    quad (int_range 3 8) (int_range 0 6)
      (pair (int_range 1 12) (int_range 0 10_000))
      (oneofl [ 1; 2; 4 ]))

let test_pipeline_par_differential () =
  let prop (nodes, chords, (bins, seed), jobs) =
    let routing, truth, prior, _, _ = instance ~nodes ~chords ~bins ~seed in
    let config = Pipeline.default_config routing in
    let seq = Pipeline.run config ~truth ~prior in
    let par =
      Pool.with_pool ~jobs (fun pool ->
          Pipeline.run_par ~pool config ~truth ~prior)
    in
    let bits series =
      Array.init bins (fun k -> tm_bits (Ic_traffic.Series.tm series k))
    in
    bits seq.Pipeline.estimate = bits par.Pipeline.estimate
    && seq.Pipeline.per_bin_error = par.Pipeline.per_bin_error
    && seq.Pipeline.clamped_entries = par.Pipeline.clamped_entries
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:8
       ~name:"Pipeline.run_par = Pipeline.run on random topologies"
       gen_topology_case prop)

let test_jobs_cross_agreement () =
  (* All pool sizes agree with each other, not just with the sequential
     path, on one awkward topology (odd node count, several chords). *)
  let routing, truth, prior, _, _ =
    instance ~nodes:7 ~chords:4 ~bins:9 ~seed:4242
  in
  let config = Pipeline.default_config routing in
  let run jobs =
    let r =
      Pool.with_pool ~jobs (fun pool ->
          Pipeline.run_par ~pool config ~truth ~prior)
    in
    Array.init 9 (fun k ->
        tm_bits (Ic_traffic.Series.tm r.Pipeline.estimate k))
  in
  let j1 = run 1 in
  List.iter
    (fun jobs ->
      let jn = run jobs in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d length" jobs)
        (Array.length j1) (Array.length jn);
      Array.iteri
        (fun k a ->
          Alcotest.(check (array int64))
            (Printf.sprintf "jobs=%d bin %d" jobs k)
            a jn.(k))
        j1)
    [ 2; 3; 4 ]

(* --- estimator registry blitz -------------------------------------------- *)

(* Every registered family — including ones a later PR registers without
   touching this file — must satisfy the two bit-identity contracts the
   drivers rely on: a plan reused across bins gives the same answer as a
   fresh plan per bin (factor caching never leaks state between bins), and
   the pool-sharded batch driver matches the sequential one at every job
   count. *)

module Estimator = Ic_estimation.Estimator

(* Smaller case budget than the single-family properties: each case runs
   every registered estimator, and the ic family refits stable-fP per
   calibration. *)
let registry_gen =
  QCheck2.Gen.(
    quad (int_range 3 7) (int_range 0 5)
      (pair (int_range 2 8) (int_range 0 10_000))
      (oneofl [ 2; 4 ]))

let test_registry_plan_reuse_differential () =
  let prop (nodes, chords, (bins, seed), _) =
    let routing, truth, _, link_loads, _ =
      instance ~nodes ~chords ~bins ~seed
    in
    List.for_all
      (fun name ->
        let (module E : Estimator.S) = Estimator.find_exn name in
        let state = E.calibrate ~routing ~train:(Some truth) in
        let shared = Tomogravity.make_plan routing in
        let reused =
          Array.init bins (fun k ->
              let ctx =
                Estimator.make_ctx ~routing ~plan:shared
                  ~link_loads:link_loads.(k) ~bin:k ()
              in
              Estimator.estimate_bin (module E) state ctx)
        in
        let fresh =
          Array.init bins (fun k ->
              let plan = Tomogravity.make_plan routing in
              let ctx =
                Estimator.make_ctx ~routing ~plan
                  ~link_loads:link_loads.(k) ~bin:k ()
              in
              Estimator.estimate_bin (module E) state ctx)
        in
        Array.for_all2
          (fun (a, ca) (b, cb) -> ca = cb && tm_bits a = tm_bits b)
          reused fresh)
      (Estimator.names ())
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:6
       ~name:"every registered estimator: plan reuse = fresh plan per bin"
       registry_gen prop)

let test_registry_jobs_differential () =
  let prop (nodes, chords, (bins, seed), jobs) =
    let routing, truth, _, _, _ = instance ~nodes ~chords ~bins ~seed in
    let bits (r : Pipeline.result) =
      Array.init bins (fun k ->
          tm_bits (Ic_traffic.Series.tm r.Pipeline.estimate k))
    in
    List.for_all
      (fun name ->
        let (module E : Estimator.S) = Estimator.find_exn name in
        let seq =
          Pipeline.run_estimator (module E) ~routing ~train:truth ~truth ()
        in
        let par =
          Pool.with_pool ~jobs (fun pool ->
              Pipeline.run_estimator ~pool
                (module E)
                ~routing ~train:truth ~truth ())
        in
        bits seq = bits par
        && seq.Pipeline.per_bin_error = par.Pipeline.per_bin_error
        && seq.Pipeline.clamped_entries = par.Pipeline.clamped_entries)
      (Estimator.names ())
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:6
       ~name:"every registered estimator: run_estimator par = sequential"
       registry_gen prop)

(* --- registry-wide invariant oracle -------------------------------------- *)

(* On noiseless loads [y = R x_true], every estimate — from every registered
   family through the batch driver, and from the streaming engine's default
   path — must be finite and non-negative, reimpose the measured marginals
   (the ingress/egress pseudo-link rows of [y]), and, on bins where the
   tomogravity clamp zeroed nothing, meet the link constraints. This is the
   property the engine's weight freezing relies on: the constraints hold at
   the refined solution for any psd weighting.

   Tolerances, stated per family:
   - IPF stops once every row and column is within 1e-9 of the bin total,
     so marginals are checked at [ipf_tol] of the total;
   - a refined estimate meets [R x = y] up to the Cholesky ridge (1e-10 of
     the Gram's mean diagonal) and the IPF stop, far inside [link_tol] of
     [||y||];
   - integer tomography then rounds each entry to a whole number of
     connection units, and its moment matching caps a unit at 1e-4 of the
     mean bin total. Each entry moves by less than one such [quantum], so a
     row or column of n entries moves by less than n quanta, and the link
     loads by less than (n + 1) n^2 quanta in 1-norm (an OD pair loads at
     most n - 1 hops plus its two marginal rows, with routing fractions in
     [0, 1]);
   - gravity uses no link information at all, so its link residual is not
     a promise and is not checked. *)

let ipf_tol = 1e-8
let link_tol = 1e-6

type invariant_tols = {
  marginal : float;  (* relative to the bin total *)
  link : float option;  (* relative to ||y||; None = not checked *)
}

let tols_for name ~n ~mean_total ~bin_total ~ynorm =
  let quantum = mean_total /. 1e4 in
  match name with
  | "gravity" -> { marginal = ipf_tol; link = None }
  | "integer-tomography" ->
      let nf = float_of_int n in
      let link_quanta = (nf +. 1.) *. nf *. nf in
      {
        marginal = ipf_tol +. (nf *. quantum /. bin_total);
        link = Some (link_tol +. (link_quanta *. quantum /. ynorm));
      }
  | _ -> { marginal = ipf_tol; link = Some link_tol }

(* [None] when every invariant holds, else a description of the first
   violation. *)
let invariant_violation routing tols ~y ~clamped tm =
  let n = Tm.size tm in
  let measured_in i = y.(Routing.ingress_row routing i)
  and measured_out j = y.(Routing.egress_row routing j) in
  let total = Ic_linalg.Vec.sum (Array.init n measured_in) in
  let bad = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt
  in
  Array.iteri
    (fun k x ->
      if not (Float.is_finite x && x >= 0.) then fail "entry %d = %h" k x)
    (Tm.unsafe_data tm);
  let rows = Ic_traffic.Marginals.ingress tm
  and cols = Ic_traffic.Marginals.egress tm in
  for i = 0 to n - 1 do
    let dr = Float.abs (rows.(i) -. measured_in i) /. total in
    let dc = Float.abs (cols.(i) -. measured_out i) /. total in
    if dr > tols.marginal then fail "row %d off by %.3g of the total" i dr;
    if dc > tols.marginal then fail "column %d off by %.3g of the total" i dc
  done;
  (match tols.link with
  | Some tol when clamped = 0 ->
      let r = Tomogravity.residual routing ~link_loads:y tm in
      if r > tol then fail "link residual %.3g > %.3g" r tol
  | _ -> ());
  !bad

let test_registry_invariant_oracle () =
  let prop (nodes, chords, (bins, seed), _) =
    let routing, truth, _, link_loads, _ =
      instance ~nodes ~chords ~bins ~seed
    in
    let mean_total =
      Ic_linalg.Vec.sum (Ic_traffic.Series.total_series truth)
      /. float_of_int bins
    in
    List.for_all
      (fun name ->
        let (module E : Estimator.S) = Estimator.find_exn name in
        let r =
          Pipeline.run_estimator (module E) ~routing ~train:truth ~truth ()
        in
        Array.for_all
          (fun k ->
            let y = link_loads.(k) in
            let tols =
              tols_for name ~n:nodes ~mean_total
                ~bin_total:(Tm.total (Ic_traffic.Series.tm truth k))
                ~ynorm:(Ic_linalg.Vec.nrm2 y)
            in
            match
              invariant_violation routing tols ~y
                ~clamped:r.Pipeline.per_bin_clamped.(k)
                (Ic_traffic.Series.tm r.Pipeline.estimate k)
            with
            | None -> true
            | Some m -> QCheck2.Test.fail_reportf "%s, bin %d: %s" name k m)
          (Array.init bins Fun.id))
      (Estimator.names ())
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:20
       ~name:"every registered estimator keeps the estimate invariants"
       registry_gen prop)

(* The streaming engine on the same noiseless loads, one engine per family.
   The native path walks the ladder-rung prior, frozen weights and IPF; the
   refit cadence is shortened so a short run walks the cold-start gravity
   rung, a refit and the fitted rungs. A plugged-in family refines with the
   engine's regime-frozen weights unless it re-derives its own (iterative
   tomogravity). Integer tomography is left out: its unit is learned online,
   so [tols_for]'s batch quantum does not bound it. *)
let engine_invariant_oracle ~name estimators =
  let gen =
    QCheck2.Gen.(
      triple (int_range 3 7) (int_range 0 5)
        (pair (int_range 8 20) (int_range 0 10_000)))
  in
  let prop (nodes, chords, (bins, seed)) =
    let routing, truth, _, link_loads, _ =
      instance ~nodes ~chords ~bins ~seed
    in
    let mean_total =
      Ic_linalg.Vec.sum (Ic_traffic.Series.total_series truth)
      /. float_of_int bins
    in
    List.for_all
      (fun estimator ->
        let config =
          {
            (Ic_runtime.Engine.default_config routing
               truth.Ic_traffic.Series.binning)
            with
            Ic_runtime.Engine.refit_every = 4;
            window = 8;
            recover_after = 2;
            estimator;
          }
        in
        let engine = Ic_runtime.Engine.create config in
        let missing = Array.make (Routing.row_count routing) false in
        Array.for_all
          (fun k ->
            let y = link_loads.(k) in
            let out = Ic_runtime.Engine.step engine ~loads:y ~missing in
            let tols =
              tols_for estimator ~n:nodes ~mean_total
                ~bin_total:(Tm.total (Ic_traffic.Series.tm truth k))
                ~ynorm:(Ic_linalg.Vec.nrm2 y)
            in
            match
              invariant_violation routing tols ~y ~clamped:out.clamped
                out.estimate
            with
            | None -> true
            | Some m ->
                QCheck2.Test.fail_reportf "%s, bin %d (%s): %s" estimator k
                  (Ic_runtime.Degrade.level_name out.level)
                  m)
          (Array.init bins Fun.id))
      estimators
  in
  QCheck2.Test.check_exn (QCheck2.Test.make ~count:20 ~name gen prop)

let test_engine_invariant_oracle () =
  engine_invariant_oracle [ "ic" ]
    ~name:"engine default path keeps the estimate invariants"

let test_engine_plugin_invariant_oracle () =
  engine_invariant_oracle
    [ "gravity"; "tomogravity"; "tomogravity-iterative" ]
    ~name:"engine plugin families keep the estimate invariants"

let test_registry_roster () =
  (* The built-in families are present, sorted, and an unknown lookup
     names the whole roster — the CLI error path leans on this. *)
  let names = Estimator.names () in
  Alcotest.(check (list string))
    "sorted" (List.sort compare names) names;
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (Estimator.mem n))
    [ "gravity"; "ic"; "integer-tomography"; "tomogravity";
      "tomogravity-iterative" ];
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match Estimator.find_exn "no-such-family" with
  | _ -> Alcotest.fail "find_exn accepted an unknown name"
  | exception Invalid_argument msg ->
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " listed in error") true (contains msg n))
        names

let test_random_graph_sane () =
  (* The generator itself: rings stay connected, chords never duplicate
     edges, and routing construction succeeds across the size range. *)
  let prop (nodes, chords, (_, seed), _) =
    let g = random_graph ~nodes ~chords ~seed in
    Graph.is_connected g
    && Graph.edge_count g >= 2 * nodes
    && Routing.row_count (Routing.build g) > 0
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:25 ~name:"random topology generator is sane"
       gen_topology_case prop)

let () =
  Alcotest.run "differential"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "Pipeline.run_par (random topologies)" `Slow
            test_pipeline_par_differential;
          Alcotest.test_case "pool sizes agree pairwise" `Quick
            test_jobs_cross_agreement;
        ] );
      ( "estimator registry",
        [
          Alcotest.test_case "plan reuse = fresh plan (whole registry)" `Slow
            test_registry_plan_reuse_differential;
          Alcotest.test_case "parallel = sequential (whole registry)" `Slow
            test_registry_jobs_differential;
          Alcotest.test_case "invariant oracle (whole registry)" `Slow
            test_registry_invariant_oracle;
          Alcotest.test_case "invariant oracle (engine default path)" `Slow
            test_engine_invariant_oracle;
          Alcotest.test_case "invariant oracle (engine plugin families)" `Slow
            test_engine_plugin_invariant_oracle;
          Alcotest.test_case "roster and unknown-name error" `Quick
            test_registry_roster;
        ] );
      ( "generator",
        [
          Alcotest.test_case "random graph sanity" `Quick
            test_random_graph_sane;
        ] );
    ]
