module Routing = Ic_topology.Routing
module Series = Ic_traffic.Series
module Tm = Ic_traffic.Tm
module Trace = Ic_obs.Trace

type refinement =
  | Least_squares of Tomogravity.solver
  | Max_entropy

type config = {
  routing : Ic_topology.Routing.t;
  refinement : refinement;
  apply_ipf : bool;
}

let default_config routing =
  { routing; refinement = Least_squares Tomogravity.Cholesky; apply_ipf = true }

type result = {
  estimate : Ic_traffic.Series.t;
  per_bin_error : float array;
  mean_error : float;
  per_bin_clamped : int array;
  clamped_entries : int;
}

let validate ?link_loads config ~truth ~prior =
  if not config.routing.Routing.with_marginals then
    invalid_arg "Pipeline.run: routing must include marginal rows";
  if Series.length truth <> Series.length prior then
    invalid_arg "Pipeline.run: truth/prior length mismatch";
  let n = Series.size truth in
  if Series.size prior <> n then invalid_arg "Pipeline.run: size mismatch";
  let g = config.routing.Routing.graph in
  if Ic_topology.Graph.node_count g <> n then
    invalid_arg "Pipeline.run: routing does not match series size";
  match link_loads with
  | Some loads when Array.length loads <> Series.length truth ->
      invalid_arg "Pipeline.run: link-load series length mismatch"
  | _ -> ()

(* The classic three-step config expressed as a first-class estimator: the
   prior stage reads the supplied prior series at the bin index, the refine
   stage is the configured solver, the projection stage is IPF when enabled.
   [run]/[run_par] below are the generic driver over this module, so the
   legacy entry points and plugged-in estimator families share one code
   path bin for bin.

   Negative-estimate audit: the clamp must never be silent (the pre-PR-1
   [Tm.of_vector] hid it), so every refined bin reads the plan's clamp
   hook and the total is reported in the result. The MaxEnt path cannot
   produce negatives ([prior * exp] form), and IPF only rescales
   non-negative entries, so the tomogravity hook covers every clamp in the
   pipeline. *)
let of_config config ~prior : (module Estimator.S) =
  (module struct
    let name = "pipeline-config"
    let doc = "internal adapter for Pipeline.run's config record"

    let calibrate ~routing:_ ~train:_ = Estimator.state_create ~owner:name []
    let prior _state ctx = Series.tm prior ctx.Estimator.bin

    let refine _state ctx ~prior =
      match config.refinement with
      | Least_squares solver ->
          let tm =
            Tomogravity.estimate_with_plan ~solver ctx.Estimator.plan
              ~link_loads:ctx.Estimator.link_loads ~prior
          in
          (tm, Tomogravity.plan_last_clamp_count ctx.Estimator.plan)
      | Max_entropy ->
          ( Entropy.estimate ~plan:ctx.Estimator.plan config.routing
              ~link_loads:ctx.Estimator.link_loads ~prior,
            0 )

    let project _state ctx tm =
      if config.apply_ipf then Estimator.ipf_project ctx tm else tm

    let observe _state _ctx ~estimate:_ = ()
  end)

let finish ~truth per_bin =
  let estimate = Series.make truth.Series.binning (Array.map fst per_bin) in
  let per_bin_clamped = Array.map snd per_bin in
  let clamped_entries = Array.fold_left ( + ) 0 per_bin_clamped in
  let per_bin_error =
    Array.init (Series.length truth) (fun k ->
        let t = Series.tm truth k in
        if Tm.total t <= 0. then 0.
        else Ic_traffic.Error.rel_l2_temporal t (Series.tm estimate k))
  in
  let mean_error =
    if Array.length per_bin_error = 0 then 0.
    else
      Ic_linalg.Vec.sum per_bin_error
      /. float_of_int (Array.length per_bin_error)
  in
  if clamped_entries > 0 then
    Logs.debug (fun m ->
        m "Pipeline.run: clamped %d negative estimate entries" clamped_entries);
  { estimate; per_bin_error; mean_error; per_bin_clamped; clamped_entries }

(* The generic per-bin driver: observable link loads are derived from the
   truth exactly as an operator would measure them ([Y = R x], marginal
   pseudo-links included) unless measured loads are supplied, then the bin
   runs through the estimator's three stages. The calibrated state is
   frozen across bins (the stage functions are pure w.r.t. it — see
   {!Estimator.S}), so bins are independent and the parallel path is
   bit-identical to the sequential one at every pool size. *)
let drive ?link_loads ~tracer ?pool (module E : Estimator.S) state ~routing
    ~truth =
  let bins = Series.length truth in
  let one plan k =
    let loads =
      match link_loads with
      | Some loads -> loads.(k)
      | None -> Routing.link_loads routing (Tm.to_vector (Series.tm truth k))
    in
    let ctx = Estimator.make_ctx ~routing ~plan ~link_loads:loads ~bin:k () in
    Estimator.estimate_bin (module E) state ctx
  in
  let attrs = [ ("bins", string_of_int bins) ] in
  let base = Tomogravity.make_plan ~tracer routing in
  (* Each bin's (estimate, clamp count) is computed on whichever domain
     claimed it; the clamp total is then folded in bin order, so the result
     record — floats included — is a pure function of the inputs. *)
  let per_bin =
    Trace.with_span tracer "pipeline.run" ~attrs (fun () ->
        match pool with
        | None -> Array.init bins (one base)
        | Some pool ->
            let plans =
              Array.init (Ic_parallel.Pool.size pool) (fun s ->
                  if s = 0 then base else Tomogravity.plan_clone base)
            in
            Ic_parallel.Pool.map pool ~n:bins (fun ~slot k ->
                one plans.(slot) k))
  in
  finish ~truth per_bin

let run ?link_loads ?(tracer = Trace.noop) config ~truth ~prior =
  validate ?link_loads config ~truth ~prior;
  let (module E) = of_config config ~prior in
  let state = E.calibrate ~routing:config.routing ~train:None in
  drive ?link_loads ~tracer (module E : Estimator.S) state
    ~routing:config.routing ~truth

let run_par ?link_loads ?(tracer = Trace.noop) ~pool config ~truth ~prior =
  validate ?link_loads config ~truth ~prior;
  let (module E) = of_config config ~prior in
  let state = E.calibrate ~routing:config.routing ~train:None in
  drive ?link_loads ~tracer ~pool (module E : Estimator.S) state
    ~routing:config.routing ~truth

let run_estimator ?link_loads ?(tracer = Trace.noop) ?pool
    (module E : Estimator.S) ~routing ?train ~truth () =
  if not routing.Routing.with_marginals then
    invalid_arg "Pipeline.run_estimator: routing must include marginal rows";
  let g = routing.Routing.graph in
  if Ic_topology.Graph.node_count g <> Series.size truth then
    invalid_arg "Pipeline.run_estimator: routing does not match series size";
  (match link_loads with
  | Some loads when Array.length loads <> Series.length truth ->
      invalid_arg "Pipeline.run_estimator: link-load series length mismatch"
  | _ -> ());
  (match train with
  | Some t when Series.size t <> Series.size truth ->
      invalid_arg "Pipeline.run_estimator: train/truth size mismatch"
  | _ -> ());
  let state = E.calibrate ~routing ~train in
  drive ?link_loads ~tracer ?pool (module E : Estimator.S) state ~routing
    ~truth

let improvement_over ~baseline ~candidate =
  Ic_traffic.Error.improvement_series ~baseline:baseline.per_bin_error
    ~candidate:candidate.per_bin_error
