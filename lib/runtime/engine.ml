module Vec = Ic_linalg.Vec
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Routing = Ic_topology.Routing
module Tomogravity = Ic_estimation.Tomogravity
module Estimator = Ic_estimation.Estimator
module Trace = Ic_obs.Trace

type config = {
  routing : Ic_topology.Routing.t;
  binning : Ic_timeseries.Timebin.t;
  refit_every : int;
  window : int;
  refit_sweeps : int;
  stale_after : int;
  impute_budget : int;
  recover_after : int;
  initial_params : (float * Ic_linalg.Vec.t) option;
  gate_refits : bool;
  gate_threshold : float;
  quarantine_limit : int;
  epoch_refit : int option;
  estimator : string;
}

let default_config routing binning =
  let day = Ic_timeseries.Timebin.bins_per_day binning in
  {
    routing;
    binning;
    refit_every = day;
    window = day;
    refit_sweeps = 6;
    stale_after = 2 * day;
    impute_budget = 2;
    recover_after = 12;
    initial_params = None;
    gate_refits = false;
    gate_threshold = 4.;
    quarantine_limit = 6;
    epoch_refit = None;
    estimator = "ic";
  }

(* Missing-poll fractions above which the prior drops to the closed form
   and to gravity, and the forward fraction assumed before any fit. *)
let miss_soft = 0.2
let miss_hard = 0.5
let fallback_f = 0.35

(* A refit runs at most this many bin visits (see [Ic_core.Fit.fit_stable_fp]'s
   [visit]) per step, 0.8-1 ms on Géant: a warm day refit (~4,000 visits)
   spreads over 5-6 steps, a both-basin one over 10-11, and a cold fit of
   [cold_fit_bins] bins (672 visits) completes in its first slice. *)
let slice_visits = 768

let slice_help =
  Printf.sprintf
    "wall-clock duration of one refit slice (a refit runs in slices of at \
     most %d bin visits, one per step)"
    slice_visits

(* A native engine that has never fitted refits over its first bins once it
   has seen this many: the paper finds f and P stable across windows, so a
   short window already places them. *)
let cold_fit_bins = 24

(* A refit made due by [step]: the first bin of its window, whether
   quarantined slots stay out of it, and whether it is an epoch refit. *)
type due = { since : int; gated : bool; epoch : bool }

type refit_result = {
  r_at : int;
  r_epoch : bool;
  r_f : float;
  r_preference : Vec.t;
  r_mean_error : float;
  r_both_basins : bool;
}

type running = {
  due : due;
  start : int;  (* bin of its first slice *)
  job : Ic_core.Params.stable_fp Ic_core.Fit.fitted Sliced.t;
  mutable ns : float;  (* wall time of its slices so far *)
}

type refit =
  | Idle
  | Due of due  (* its first slice runs at the start of the next step *)
  | Running of running
  | Ready of refit_result * float option
      (* run to its end by a snapshot (with its slices' wall time) or
         restored from one (without): takes effect at [r_at] *)

type t = {
  config : config;
  mutable plugin : ((module Estimator.S) * Estimator.state) option;
      (* [None] runs the native ic path below; [Some] dispatches the
         prior/refine/project stages (and the sequential [observe] hook)
         to a registry estimator, with the stable-fP refit machinery idle.
         The state is the only mutable half — it rides snapshots so
         kill/resume is bit-identical. *)
  mutable routing : Routing.t;  (* current topology; starts at config.routing *)
  mutable plan : Tomogravity.plan;  (* always built for [routing] *)
  mutable topo_pending : bool;
      (* a live set_routing happened since the last step: force the next
         bin's ladder verdict down (the fit predates the new topology) *)
  n : int;  (* nodes *)
  m : int;  (* routing rows: links + 2n marginal pseudo-links *)
  tel : Telemetry.t;
  (* The per-bin stage histograms, resolved once so a bin skips the
     sink's lookup by name. *)
  h_ingest : Ic_obs.Metrics.histogram;
  h_prior : Ic_obs.Metrics.histogram;
  h_estimate : Ic_obs.Metrics.histogram;
  h_ipf : Ic_obs.Metrics.histogram;
  tracer : Trace.t;
  degrade : Degrade.t;
  ingress_rows : int array;
  egress_rows : int array;
  mutable bin : int;
  mutable f : float;
  mutable preference : Vec.t option;
  mutable fit_age : int;  (* max_int = never fitted *)
  mutable fit_error : float option;
      (* window mean RelL2 of the engine's last refit: the incumbent a warm
         refit is guarded against; [None] until the first refit *)
  window_buf : Tm.t option array;  (* estimate of bin b lives at b mod window *)
  quarantine_buf : bool array;  (* aligned with window_buf: bin flagged
                                   anomalous, excluded from gated refits *)
  total_buf : float array;  (* aligned with window_buf: the slot estimate's
                               byte total, cached so the per-bin gate test
                               does not rescan every window matrix *)
  mutable quarantine_streak : int;  (* consecutive quarantined bins *)
  mutable epoch_bin : int;  (* bin of the last live topology change *)
  mutable epoch_due : int;  (* bin at which the scheduled post-epoch early
                               refit falls due; max_int = none scheduled *)
  mutable refit : refit;
  last_loads : float array;  (* last trusted poll per link *)
  mutable have_last : bool;
  consec_missing : int array;
  (* Fast-path state (all derived or regime-scoped; see [freeze_weights]).
     The frozen weights are the only piece that is genuine engine state —
     they survive checkpoints so kill/resume is bit-identical. *)
  mutable frozen_weights : (Degrade.level * Vec.t) option;
  mutable prior_cache : Ic_core.Estimate_a.cache option;
  mutable fp_hits : int;
  mutable fp_refactorizes : int;
  (* Arena buffers reused across bins: [step] fully overwrites each before
     reading and no callee retains them. *)
  effective_buf : float array;
  ingress_buf : Vec.t;
  egress_buf : Vec.t;
}

let validate_config (c : config) =
  if not c.routing.Routing.with_marginals then
    invalid_arg "Engine: routing must include marginal rows";
  if c.refit_every < 1 then invalid_arg "Engine: refit_every must be >= 1";
  if c.window < 1 then invalid_arg "Engine: window must be >= 1";
  if c.refit_sweeps < 1 then invalid_arg "Engine: refit_sweeps must be >= 1";
  if c.stale_after < 1 then invalid_arg "Engine: stale_after must be >= 1";
  if c.impute_budget < 0 then invalid_arg "Engine: negative impute_budget";
  if c.recover_after < 1 then invalid_arg "Engine: recover_after must be >= 1";
  if c.gate_threshold <= 0. then
    invalid_arg "Engine: gate_threshold must be positive";
  if c.quarantine_limit < 1 then
    invalid_arg "Engine: quarantine_limit must be >= 1";
  (match c.epoch_refit with
  | Some k when k < 1 -> invalid_arg "Engine: epoch_refit must be >= 1"
  | _ -> ());
  if c.estimator <> "ic" && not (Estimator.mem c.estimator) then
    ignore (Estimator.find_exn c.estimator : (module Estimator.S));
  match c.initial_params with
  | Some (f, p) ->
      if f < 0. || f > 1. then invalid_arg "Engine: initial f out of [0,1]";
      let g = c.routing.Routing.graph in
      if Array.length p <> Ic_topology.Graph.node_count g then
        invalid_arg "Engine: initial preference size mismatch"
  | None -> ()

let create ?telemetry ?(tracer = Trace.noop) config =
  validate_config config;
  let g = config.routing.Routing.graph in
  let n = Ic_topology.Graph.node_count g in
  let m = Routing.row_count config.routing in
  let plugin =
    if config.estimator = "ic" then None
    else begin
      let (module E) = Estimator.find_exn config.estimator in
      let state = E.calibrate ~routing:config.routing ~train:None in
      Some ((module E : Estimator.S), state)
    end
  in
  let f, preference, fit_age, initial_level =
    match config.initial_params with
    | Some (f, p) -> (f, Some (Array.copy p), 0, Degrade.Measured_ic)
    | None -> (fallback_f, None, max_int, Degrade.Gravity)
  in
  (* A plugged-in estimator owns its own calibration, so the ladder's fit
     component never holds it below full service. *)
  let initial_level =
    if plugin <> None then Degrade.Measured_ic else initial_level
  in
  let tel = match telemetry with Some t -> t | None -> Telemetry.create () in
  {
    config;
    plugin;
    routing = config.routing;
    plan = Tomogravity.make_plan ~tracer config.routing;
    topo_pending = false;
    n;
    m;
    tel;
    h_ingest = Telemetry.stage tel "ingest";
    h_prior = Telemetry.stage tel "prior";
    h_estimate = Telemetry.stage tel "estimate";
    h_ipf = Telemetry.stage tel "ipf";
    tracer;
    degrade =
      Degrade.create ~initial:initial_level
        ~recover_after:config.recover_after ();
    ingress_rows = Array.init n (fun i -> Routing.ingress_row config.routing i);
    egress_rows = Array.init n (fun j -> Routing.egress_row config.routing j);
    bin = 0;
    f;
    preference;
    fit_age;
    fit_error = None;
    window_buf = Array.make config.window None;
    quarantine_buf = Array.make config.window false;
    total_buf = Array.make config.window 0.;
    quarantine_streak = 0;
    epoch_bin = 0;
    epoch_due = max_int;
    refit = Idle;
    last_loads = Array.make m 0.;
    have_last = false;
    consec_missing = Array.make m 0;
    frozen_weights = None;
    prior_cache = None;
    fp_hits = 0;
    fp_refactorizes = 0;
    effective_buf = Array.make m 0.;
    ingress_buf = Array.make n 0.;
    egress_buf = Array.make n 0.;
  }

type output = {
  estimate : Ic_traffic.Tm.t;
  level : Degrade.level;
  clamped : int;
}

(* --- sliding-window refit ----------------------------------------------

   [step] only makes a refit due; the refit runs at the start of the
   following steps, [slice_visits] bin visits at a time, and takes effect
   in the slice that completes it, before that step's bin is estimated.
   The fit suspends inside its visit hook between slices ([Sliced]), so a
   sliced refit computes exactly the synchronous fit of its window. *)

(* The window bins eligible for a refit, chronological: bins in
   [max (bin - window) since, bin), minus quarantined slots when the gate
   applies. *)
let window_slots t ~since ~skip_quarantined =
  let len = min t.bin (Array.length t.window_buf) in
  let lo = Stdlib.max (t.bin - len) since in
  let tms = ref [] in
  for b = t.bin - 1 downto lo do
    let slot = b mod Array.length t.window_buf in
    if not (skip_quarantined && t.quarantine_buf.(slot)) then
      match t.window_buf.(slot) with
      | Some tm -> tms := tm :: !tms
      | None -> () (* unreachable: slots < bin are filled *)
  done;
  !tms

(* Whether [d]'s window carries traffic, from the cached slot totals summed
   in [window_slots]'s order; counts the quarantined slots it leaves out,
   and the refit skipped when it does not. *)
let eligible t d =
  let len = min t.bin (Array.length t.window_buf) in
  let lo = Stdlib.max (t.bin - len) d.since in
  let kept = ref 0 and total = ref 0. in
  for b = lo to t.bin - 1 do
    let slot = b mod Array.length t.window_buf in
    if not (d.gated && t.quarantine_buf.(slot)) then begin
      incr kept;
      total := !total +. t.total_buf.(slot)
    end
  done;
  if d.gated then
    Telemetry.add t.tel "quarantine.excluded"
      (Stdlib.max 0 (t.bin - lo) - !kept);
  let ok = !kept > 0 && !total > 0. in
  if not ok then Telemetry.incr t.tel "refit.skipped";
  ok

let set_gauge t name help v =
  Ic_obs.Metrics.(set (gauge (Telemetry.registry t.tel) ~help name) v)

(* The last fit's f and window mean RelL2, as gauges an operator can read
   without ground truth: the paper finds f in 0.2-0.3 (Figs 4-5) and the
   fit error stable from window to window (Fig 3), so a jump in either
   flags model mismatch. Beside them, the bin the fit took effect at. They
   are created with the first fit, so an engine that has none exposes
   none. *)
let set_fit_gauges t =
  match t.fit_error with
  | None -> ()
  | Some err ->
      set_gauge t "refit.f" "forward fraction f of the last refit" t.f;
      set_gauge t "refit.mean_rel_l2" "window mean RelL2 of the last refit" err;
      set_gauge t "refit.effect_bin" "bin the current fit took effect at"
        (float_of_int (t.bin - t.fit_age))

let take_effect t (r : refit_result) ~ns =
  if Option.is_some t.fit_error && r.r_both_basins then
    Telemetry.incr t.tel "refit.basin_check";
  t.f <- r.r_f;
  t.preference <- Some r.r_preference;
  t.fit_age <- 0;
  t.fit_error <- Some r.r_mean_error;
  (* New (f, preference): the prior cache is stale and the next bin's
     weights must refreeze against the new regime's prior. *)
  t.prior_cache <- None;
  t.frozen_weights <- None;
  Tomogravity.plan_invalidate t.plan;
  if r.r_epoch then begin
    Degrade.note t.degrade ~bin:(t.bin - 1) ~reason:Degrade.Epoch_refit;
    Telemetry.incr t.tel "refit.epoch"
  end;
  set_fit_gauges t;
  Option.iter
    (fun ns ->
      set_gauge t "refit.seconds"
        "wall-clock seconds of the last refit, summed over its slices"
        (ns *. 1e-9))
    ns;
  Telemetry.incr t.tel "refit.count"

let start_refit t due =
  let series =
    Series.make t.config.binning
      (Array.of_list (window_slots t ~since:due.since ~skip_quarantined:due.gated))
  in
  let options =
    {
      Ic_core.Fit.default_options with
      max_sweeps = t.config.refit_sweeps;
      f_init =
        (if t.preference = None then Ic_core.Fit.default_options.f_init
         else t.f);
    }
  and incumbent = t.fit_error in
  {
    due;
    start = t.bin;
    job =
      Sliced.create (fun visit ->
          Ic_core.Fit.fit_stable_fp ~options ?incumbent ~visit series);
    ns = 0.;
  }

(* One slice of [r], its own [engine.refit] span and stage observation;
   once it completes the refit, its result, with the bin it takes effect
   at had every slice run in its own step. *)
let run_slice t r ~budget =
  Trace.with_span t.tracer "engine.refit" (fun () ->
      let clock = Telemetry.clock t.tel in
      let t0 = clock () in
      Sliced.run r.job ~budget;
      let ns = Float.max 0. ((clock () -. t0) *. 1e9) in
      Ic_obs.Metrics.observe
        (Telemetry.stage t.tel "refit" ~help:slice_help)
        ns;
      r.ns <- r.ns +. ns);
  Option.map
    (fun (fit : Ic_core.Params.stable_fp Ic_core.Fit.fitted) ->
      {
        r_at = r.start + ((Sliced.visits r.job - 1) / slice_visits);
        r_epoch = r.due.epoch;
        r_f = fit.params.f;
        r_preference = Array.copy fit.params.preference;
        r_mean_error = fit.mean_error;
        r_both_basins = fit.both_basins;
      })
    (Sliced.result r.job)

(* A slice runs with the refit out of [t.refit], so a refit that raises is
   dropped rather than resumed again. [advance_refit] is the refit's work
   in one step: the next slice of a due or running refit, or a ready one
   reaching its bin. [finish] runs an in-flight refit to its end and lets it
   take effect now; [settle], which a snapshot runs first, runs it to its
   end but holds it until the bin its slices would have reached. Either way
   every later estimate is the one an engine slicing it would make. *)
let advance_refit t =
  let slice r =
    t.refit <- Idle;
    match run_slice t r ~budget:slice_visits with
    | Some res -> take_effect t res ~ns:(Some r.ns)
    | None -> t.refit <- Running r
  in
  match t.refit with
  | Idle -> ()
  | Due d -> slice (start_refit t d)
  | Running r -> slice r
  | Ready (res, ns) ->
      if res.r_at = t.bin then begin
        t.refit <- Idle;
        take_effect t res ~ns
      end

let finish t =
  match t.refit with
  | Running r ->
      t.refit <- Idle;
      Option.iter
        (fun res -> take_effect t res ~ns:(Some r.ns))
        (run_slice t r ~budget:max_int)
  | Ready (res, ns) ->
      t.refit <- Idle;
      take_effect t res ~ns
  | Idle | Due _ -> ()

let settle t =
  let drain r =
    t.refit <- Idle;
    Option.iter
      (fun res -> t.refit <- Ready (res, Some r.ns))
      (run_slice t r ~budget:max_int)
  in
  match t.refit with
  | Due d -> drain (start_refit t d)
  | Running r -> drain r
  | Idle | Ready _ -> ()

(* The one refit-due rule, checked after every native bin: the epoch refit
   scheduled by [set_routing] once it is due (restricted to post-change
   bins), else the cadence refit every [refit_every] bins, else the cold
   fit of a never-fitted engine at [cold_fit_bins]. A due refit whose
   window carries no traffic is skipped, and the next rule applies. *)
let refit_due t =
  let gated = t.config.gate_refits in
  let epoch () =
    if t.bin < t.epoch_due then None
    else begin
      t.epoch_due <- max_int;
      Some { since = t.epoch_bin; gated; epoch = true }
    end
  and cadence () =
    if t.bin mod t.config.refit_every = 0 then begin
      (* Escape hatch: a streak at the quarantine cap means either a
         long-lived attack or a legitimately shifted baseline — the gate
         cannot tell them apart, and fP must never be starved
         indefinitely. Clear the flags and force this refit over the full
         window. *)
      let force = gated && t.quarantine_streak >= t.config.quarantine_limit in
      if force then begin
        Array.fill t.quarantine_buf 0 (Array.length t.quarantine_buf) false;
        t.quarantine_streak <- 0;
        Telemetry.incr t.tel "quarantine.forced_refit"
      end;
      Some { since = 0; gated = gated && not force; epoch = false }
    end
    else if
      t.bin = cold_fit_bins && t.preference = None
      && match t.refit with Idle -> true | _ -> false
    then Some { since = 0; gated; epoch = false }
    else None
  in
  let keep = function Some d when eligible t d -> Some d | _ -> None in
  match keep (epoch ()) with Some d -> Some d | None -> keep (cadence ())

let refit ?(since = 0) ?(ignore_quarantine = false) t =
  finish t;
  let d =
    {
      since;
      gated = t.config.gate_refits && not ignore_quarantine;
      epoch = false;
    }
  in
  eligible t d
  && begin
       let r = start_refit t d in
       Option.iter
         (fun res -> take_effect t res ~ns:(Some r.ns))
         (run_slice t r ~budget:max_int);
       true
     end

(* --- anomaly gate -------------------------------------------------------

   Quarantine decision for the bin just estimated: a robust z-test of the
   bin's log total against the trailing non-quarantined window history. An
   attack or outage moves the total by tens of percent while the window's
   own spread (noise + a couple of hours of diurnal drift) sits well below
   that; the MAD is floored at 5% so pristine synthetic streams do not
   flag ordinary ramps. Quarantined bins are excluded from gated refits so
   a DDoS cannot poison the stable-fP window — and are themselves excluded
   from this reference history, so a long attack cannot become the new
   normal by stealth (it becomes the new normal only through the bounded
   escape hatch: once [quarantine_limit] consecutive bins are quarantined,
   the next scheduled refit is forced over the full window and the flags
   are cleared). *)

let median_of xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0.
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

let quarantine_decision t ~total =
  if not t.config.gate_refits then false
  else begin
    (* Reference history: the cached byte totals of the trailing
       non-quarantined window slots — O(window) floats per bin, not a
       rescan of every retained matrix. *)
    let len = min t.bin (Array.length t.window_buf) in
    let totals = ref [] in
    for b = t.bin - 1 downto t.bin - len do
      let slot = b mod Array.length t.window_buf in
      if not t.quarantine_buf.(slot) then
        match t.window_buf.(slot) with
        | Some _ ->
            let v = t.total_buf.(slot) in
            if v > 0. then totals := log v :: !totals
        | None -> ()
    done;
    let totals = !totals in
    let k = List.length totals in
    if k < 8 then false
    else begin
      let logs = Array.of_list totals in
      let center = median_of logs in
      let mad =
        1.4826
        *. median_of (Array.map (fun x -> Float.abs (x -. center)) logs)
      in
      let sd = Float.max mad 0.05 in
      if total <= 0. then true
      else Float.abs (log total -. center) /. sd > t.config.gate_threshold
    end
  end

(* --- one bin ------------------------------------------------------------ *)

let worse a b = if Degrade.rank a >= Degrade.rank b then a else b

let f_degenerate f = Float.abs ((2. *. f) -. 1.) < 1e-6

let target_level t ~miss_frac ~over_budget =
  let fit_target, fit_reason =
    (* Plugged-in estimators calibrate themselves ([observe]); only poll
       health can pull their rung down. *)
    if t.plugin <> None then (Degrade.Measured_ic, Degrade.Warmup)
    else if t.preference = None then (Degrade.Gravity, Degrade.Warmup)
    else if t.fit_age > t.config.stale_after then
      (Degrade.Stale_fp, Degrade.Fit_stale)
    else (Degrade.Measured_ic, Degrade.Warmup)
  in
  let miss_target, miss_reason =
    if over_budget then (Degrade.Gravity, Degrade.Imputation_exhausted)
    else if miss_frac > miss_hard then
      (Degrade.Gravity, Degrade.Polls_missing)
    else if miss_frac > miss_soft then
      (Degrade.Closed_form, Degrade.Polls_missing)
    else (Degrade.Measured_ic, Degrade.Polls_missing)
  in
  let target = worse fit_target miss_target in
  let reason =
    if Degrade.rank miss_target > Degrade.rank fit_target then miss_reason
    else fit_reason
  in
  (* The closed form needs |2f - 1| bounded away from zero. *)
  if target = Degrade.Closed_form && f_degenerate t.f then
    (Degrade.Gravity, Degrade.F_degenerate)
  else (target, reason)

let build_prior t level ~ingress ~egress =
  let in_total = Vec.sum ingress and out_total = Vec.sum egress in
  if in_total <= 0. || out_total <= 0. then Tm.create t.n
  else
    match (level : Degrade.level) with
    | Measured_ic | Stale_fp ->
        let preference =
          match t.preference with
          | Some p -> p
          | None -> invalid_arg "Engine: IC rung without a fit (bug)"
        in
        (* The activity design and its Gram depend only on the frozen
           (f, preference); the cache is dropped on refit. *)
        let cache =
          match t.prior_cache with
          | Some c -> c
          | None ->
              let c = Ic_core.Estimate_a.make_cache ~f:t.f ~preference in
              t.prior_cache <- Some c;
              c
        in
        let activity =
          Ic_core.Estimate_a.activities_cached cache ~ingress ~egress
        in
        Ic_core.Model.simplified ~f:t.f ~activity ~preference
    | Closed_form -> begin
        match Ic_core.Closed_form.estimate ~f:t.f ~ingress ~egress with
        | Ok { activity; preference } ->
            Ic_core.Model.simplified ~f:t.f ~activity ~preference
        | Error `F_near_half ->
            (* The ladder guards this; belt for a racing f update. *)
            Telemetry.incr t.tel "prior.f_near_half";
            Ic_gravity.Gravity.from_marginals ~ingress ~egress
      end
    | Gravity -> Ic_gravity.Gravity.from_marginals ~ingress ~egress

(* Per-bin accounting: the clamp count, the plan's factor-cache tier counts
   since the previous bin, and the IPF work the ctx tallied. IPF runs on
   exactly the bins with positive ingress; [ipf.unconverged] is created
   only when it fires. *)
let record_bin t (ctx : Estimator.ctx) ~clamped =
  Telemetry.add t.tel "estimate.clamped_entries" clamped;
  let fp = Tomogravity.plan_fastpath_stats t.plan in
  Telemetry.add t.tel "fastpath.hit" (fp.Tomogravity.hits - t.fp_hits);
  Telemetry.add t.tel "fastpath.refactorize"
    (fp.Tomogravity.refactorizes - t.fp_refactorizes);
  t.fp_hits <- fp.Tomogravity.hits;
  t.fp_refactorizes <- fp.Tomogravity.refactorizes;
  if Vec.sum ctx.ingress > 0. then
    Telemetry.add t.tel "ipf.iterations" ctx.ipf.iterations;
  if ctx.ipf.unconverged > 0 then
    Telemetry.add t.tel "ipf.unconverged" ctx.ipf.unconverged

(* Weight freezing: the link constraints hold at the tomogravity solution
   for any psd weight matrix — the weights only pick the least-norm
   geometry of the correction — so between regime changes (refits and
   ladder transitions) the weights are frozen at the first bin's prior.
   Consecutive bins then hit the plan's factor cache bitwise and skip the
   Gram assembly and Cholesky factorization entirely. Returns the weights
   this bin refines with. *)
let freeze_weights t level prior =
  (match t.frozen_weights with
  | Some (lvl, _) when lvl = level -> ()
  | _ ->
      t.frozen_weights <- None;
      Tomogravity.plan_invalidate t.plan;
      let data = Tm.unsafe_data prior in
      let n_od = Array.length data in
      let w = Array.make n_od 0. in
      let sum = ref 0. in
      for s = 0 to n_od - 1 do
        let x = data.(s) in
        let x = if x < 0. then 0. else x in
        w.(s) <- x;
        sum := !sum +. x
      done;
      (* A degenerate (all-zero) bin must not pin zero weights for the rest
         of the regime; leave unfrozen and retry next bin. *)
      if !sum > 0. then t.frozen_weights <- Some (level, w));
  Option.map snd t.frozen_weights

(* One bin through the prior, refine and IPF stages. The native ic path and
   a plugged-in estimator share the ctx, the frozen weights and the
   accounting; they differ only in which prior is built and which refine and
   project functions run. A plugin's [observe] mutates only its checkpointed
   state, so kill/resume stays bit-identical. *)
let estimate_bin t level ~effective ~ingress ~egress =
  let ctx =
    {
      Estimator.routing = t.routing;
      plan = t.plan;
      link_loads = effective;
      ingress;
      egress;
      bin = t.bin;
      weights = None;
      ipf = { iterations = 0; unconverged = 0 };
    }
  in
  let prior =
    Trace.stage t.tracer "engine.prior"
      ~attrs:[ ("level", Degrade.level_name level) ]
      ~clock:(Telemetry.clock t.tel) t.h_prior
      (fun () ->
        match t.plugin with
        | Some ((module E), state) -> E.prior state ctx
        | None -> build_prior t level ~ingress ~egress)
  in
  let ctx = { ctx with weights = freeze_weights t level prior } in
  let refined, clamped =
    Trace.stage t.tracer "engine.estimate" ~clock:(Telemetry.clock t.tel)
      t.h_estimate (fun () ->
        match t.plugin with
        | Some ((module E), state) -> E.refine state ctx ~prior
        | None -> Estimator.tomogravity_refine ctx ~prior)
  in
  let estimate =
    Trace.stage t.tracer "engine.ipf" ~clock:(Telemetry.clock t.tel)
      t.h_ipf (fun () ->
        match t.plugin with
        | Some ((module E), state) -> E.project state ctx refined
        | None -> Estimator.ipf_project ctx refined)
  in
  record_bin t ctx ~clamped;
  (match t.plugin with
  | Some ((module E), state) ->
      Telemetry.incr t.tel ("estimator." ^ E.name ^ ".bins");
      Telemetry.add t.tel ("estimator." ^ E.name ^ ".clamped_entries") clamped;
      E.observe state ctx ~estimate
  | None -> ());
  (estimate, clamped)

let step t ~loads ~missing =
  if Array.length loads <> t.m then
    invalid_arg "Engine.step: link-load dimension mismatch";
  if Array.length missing <> t.m then
    invalid_arg "Engine.step: missing-flag dimension mismatch";
  Trace.with_span t.tracer "engine.step"
    ~attrs:[ ("bin", string_of_int t.bin) ]
  @@ fun () ->
  advance_refit t;
  Telemetry.incr t.tel "bins";
  Telemetry.add t.tel "polls.total" t.m;
  (* Ingest: flag corrupt polls, impute by carry-forward, track budgets. *)
  let effective = t.effective_buf in
  let n_missing = ref 0 in
  Trace.stage t.tracer "engine.ingest" ~clock:(Telemetry.clock t.tel)
    t.h_ingest (fun () ->
      for e = 0 to t.m - 1 do
        let v = loads.(e) in
        let dropped = missing.(e) in
        let corrupt = (not dropped) && (not (Float.is_finite v) || v < 0.) in
        if dropped then Telemetry.incr t.tel "polls.dropped";
        if corrupt then Telemetry.incr t.tel "polls.corrupt";
        if dropped || corrupt then begin
          incr n_missing;
          Telemetry.incr t.tel "polls.imputed";
          t.consec_missing.(e) <- t.consec_missing.(e) + 1;
          effective.(e) <-
            (if t.have_last then t.last_loads.(e)
             else if Float.is_finite v && v > 0. then v
             else 0.);
          if not t.have_last then t.last_loads.(e) <- effective.(e)
        end
        else begin
          t.consec_missing.(e) <- 0;
          t.last_loads.(e) <- v;
          effective.(e) <- v
        end
      done;
      t.have_last <- true);
  (* Health verdict -> ladder rung. *)
  let miss_frac = float_of_int !n_missing /. float_of_int t.m in
  let over_budget =
    Array.exists (fun c -> c > t.config.impute_budget) t.consec_missing
  in
  let target, reason = target_level t ~miss_frac ~over_budget in
  (* A live topology change voids the fitted model until refits catch up:
     force this bin at least down to the marginal-only closed form (or
     gravity when f is degenerate). Consumed exactly once, by the first
     step after set_routing ~degrade:true. *)
  let target, reason =
    if not t.topo_pending then (target, reason)
    else begin
      t.topo_pending <- false;
      if Degrade.rank target >= Degrade.rank Degrade.Closed_form then
        (target, reason)
      else if f_degenerate t.f then (Degrade.Gravity, Degrade.Topology_change)
      else (Degrade.Closed_form, Degrade.Topology_change)
    end
  in
  let before = Degrade.level t.degrade in
  let level = Degrade.observe t.degrade ~bin:t.bin ~target ~reason in
  if Degrade.rank level > Degrade.rank before then
    Telemetry.incr t.tel "degrade.down"
  else if Degrade.rank level < Degrade.rank before then
    Telemetry.incr t.tel "degrade.up";
  Telemetry.incr t.tel ("bins.at." ^ Degrade.level_name level);
  (* Prior from this bin's marginal counts, at the chosen rung. *)
  let ingress = t.ingress_buf and egress = t.egress_buf in
  for i = 0 to t.n - 1 do
    ingress.(i) <- effective.(t.ingress_rows.(i));
    egress.(i) <- effective.(t.egress_rows.(i))
  done;
  let estimate, clamped = estimate_bin t level ~effective ~ingress ~egress in
  (* Anomaly gate: decide whether this bin joins the refit window or is
     quarantined out of it, before the estimate overwrites the slot (the
     decision's reference history must not include the bin itself). *)
  let est_total = Tm.total estimate in
  let quarantined = quarantine_decision t ~total:est_total in
  let slot = t.bin mod Array.length t.window_buf in
  t.window_buf.(slot) <- Some estimate;
  t.quarantine_buf.(slot) <- quarantined;
  t.total_buf.(slot) <- est_total;
  if quarantined then begin
    t.quarantine_streak <- t.quarantine_streak + 1;
    Telemetry.incr t.tel "quarantine.bins"
  end
  else t.quarantine_streak <- 0;
  t.bin <- t.bin + 1;
  if t.fit_age < max_int then t.fit_age <- t.fit_age + 1;
  (* A plugged-in estimator has no stable-fP parameters to refit: its
     [observe] hook above is the whole learning loop. A refit falling due
     while another is in flight lets the first take effect now. *)
  (if t.plugin = None then
     match refit_due t with
     | Some d ->
         finish t;
         t.refit <- Due d
     | None -> ());
  { estimate; level; clamped }

(* --- accessors ---------------------------------------------------------- *)

let bins_seen t = t.bin

let level t = Degrade.level t.degrade

let params t =
  match t.preference with Some p -> Some (t.f, Array.copy p) | None -> None

let telemetry t = t.tel

let transitions t = Degrade.transitions t.degrade

let config t = t.config

let routing t = t.routing

(* --- topology changes --------------------------------------------------- *)

let set_routing ?(degrade = true) t r =
  if not r.Routing.with_marginals then
    invalid_arg "Engine.set_routing: routing must include marginal rows";
  if Routing.row_count r <> t.m then
    invalid_arg "Engine.set_routing: row count does not match the engine";
  if Ic_topology.Graph.node_count r.Routing.graph <> t.n then
    invalid_arg "Engine.set_routing: node count does not match the engine";
  t.routing <- r;
  t.plan <- Tomogravity.make_plan ~tracer:t.tracer r;
  (* The fresh plan starts its fast-path stats at zero; realign the engine's
     per-plan deltas so the next bin's counters stay non-negative. *)
  t.fp_hits <- 0;
  t.fp_refactorizes <- 0;
  if degrade then begin
    t.topo_pending <- true;
    Telemetry.incr t.tel "topology.changes";
    (* Epoch-aware priors: remember where the new routing epoch starts and,
       when configured, schedule an early refit over post-change bins only.
       [~degrade:false] replays (checkpoint resume) leave the restored
       epoch state untouched. *)
    t.epoch_bin <- t.bin;
    match t.config.epoch_refit with
    | Some k ->
        t.epoch_due <- t.bin + k;
        Telemetry.incr t.tel "refit.epoch_scheduled"
    | None -> ()
  end

(* --- checkpointing ------------------------------------------------------ *)

type snapshot = {
  s_bin : int;
  s_f : float;
  s_preference : Ic_linalg.Vec.t option;
  s_fit_age : int;
  s_fit_error : float option;
  s_degrade : Degrade.snapshot;
  s_window : Ic_traffic.Tm.t array;
  s_last_loads : Ic_linalg.Vec.t;
  s_have_last : bool;
  s_consec_missing : int array;
  s_counters : (string * int) list;
  s_frozen : (Degrade.level * Ic_linalg.Vec.t) option;
  s_quarantine : bool array;  (* aligned with s_window *)
  s_quarantine_streak : int;
  s_epoch_bin : int;
  s_epoch_due : int;  (* max_int = no early refit pending *)
  s_estimator : Estimator.state option;
      (* [Some] iff the engine runs a plugged-in estimator; [None] on the
         native ic path, so default-path checkpoint bytes are unchanged *)
  s_refit : refit_result option;  (* a settled refit not yet in effect *)
}

let snapshot t =
  settle t;
  let len = min t.bin (Array.length t.window_buf) in
  let window =
    Array.init len (fun k ->
        let b = t.bin - len + k in
        match t.window_buf.(b mod Array.length t.window_buf) with
        | Some tm -> Tm.copy tm
        | None -> Tm.create t.n)
  in
  {
    s_bin = t.bin;
    s_f = t.f;
    s_preference = Option.map Array.copy t.preference;
    s_fit_age = t.fit_age;
    s_fit_error = t.fit_error;
    s_degrade = Degrade.snapshot t.degrade;
    s_window = window;
    s_last_loads = Array.copy t.last_loads;
    s_have_last = t.have_last;
    s_consec_missing = Array.copy t.consec_missing;
    s_counters = Telemetry.counters t.tel;
    s_frozen =
      Option.map (fun (lvl, w) -> (lvl, Array.copy w)) t.frozen_weights;
    s_quarantine =
      Array.init len (fun k ->
          let b = t.bin - len + k in
          t.quarantine_buf.(b mod Array.length t.window_buf));
    s_quarantine_streak = t.quarantine_streak;
    s_epoch_bin = t.epoch_bin;
    s_epoch_due = t.epoch_due;
    s_estimator = Option.map (fun (_, st) -> Estimator.state_copy st) t.plugin;
    s_refit =
      (match t.refit with
      | Ready (r, _) -> Some { r with r_preference = Array.copy r.r_preference }
      | Idle | Due _ | Running _ -> None);
  }

let restore ?telemetry ?tracer config s =
  validate_config config;
  let t = create ?telemetry ?tracer config in
  if Array.length s.s_last_loads <> t.m then
    invalid_arg "Engine.restore: link count does not match config";
  if Array.length s.s_consec_missing <> t.m then
    invalid_arg "Engine.restore: budget array does not match config";
  if Array.length s.s_window > config.window then
    invalid_arg "Engine.restore: snapshot window exceeds config window";
  (match s.s_preference with
  | Some p when Array.length p <> t.n ->
      invalid_arg "Engine.restore: preference size mismatch"
  | _ -> ());
  (match s.s_frozen with
  | Some (_, w) when Array.length w <> t.n * t.n ->
      invalid_arg "Engine.restore: frozen weight size mismatch"
  | _ -> ());
  Array.iter
    (fun tm ->
      if Tm.size tm <> t.n then
        invalid_arg "Engine.restore: window TM size mismatch")
    s.s_window;
  if s.s_bin < Array.length s.s_window then
    invalid_arg "Engine.restore: more window entries than bins";
  if Array.length s.s_quarantine <> Array.length s.s_window then
    invalid_arg "Engine.restore: quarantine flags do not match the window";
  if s.s_quarantine_streak < 0 then
    invalid_arg "Engine.restore: negative quarantine streak";
  (match s.s_refit with
  | Some r when r.r_at < s.s_bin ->
      invalid_arg "Engine.restore: settled refit takes effect before the bin"
  | Some r when Array.length r.r_preference <> t.n ->
      invalid_arg "Engine.restore: settled refit preference size mismatch"
  | _ -> ());
  (match (t.plugin, s.s_estimator) with
  | None, None -> ()
  | Some _, None ->
      invalid_arg
        ("Engine.restore: snapshot carries no estimator state but the \
          config runs " ^ config.estimator)
  | None, Some st ->
      invalid_arg
        ("Engine.restore: snapshot carries state for estimator "
        ^ Estimator.state_owner st
        ^ " but the config runs the native ic path")
  | Some _, Some st ->
      if Estimator.state_owner st <> config.estimator then
        invalid_arg
          ("Engine.restore: snapshot estimator "
          ^ Estimator.state_owner st
          ^ " does not match config estimator " ^ config.estimator));
  let t =
    {
      t with
      degrade =
        Degrade.restore ~recover_after:config.recover_after s.s_degrade;
      bin = s.s_bin;
      f = s.s_f;
      preference = Option.map Array.copy s.s_preference;
      fit_age = s.s_fit_age;
      fit_error = s.s_fit_error;
    }
  in
  let len = Array.length s.s_window in
  Array.iteri
    (fun k tm ->
      let b = s.s_bin - len + k in
      t.window_buf.(b mod config.window) <- Some (Tm.copy tm);
      (* The cached totals are derived state: recomputed from the restored
         matrices in the same summation order, so the gate's reference
         history is bit-identical to the uninterrupted run's. *)
      t.total_buf.(b mod config.window) <- Tm.total tm)
    s.s_window;
  Array.iteri
    (fun k q ->
      let b = s.s_bin - len + k in
      t.quarantine_buf.(b mod config.window) <- q)
    s.s_quarantine;
  t.quarantine_streak <- s.s_quarantine_streak;
  t.epoch_bin <- s.s_epoch_bin;
  t.epoch_due <- s.s_epoch_due;
  Option.iter
    (fun r ->
      t.refit <- Ready ({ r with r_preference = Array.copy r.r_preference }, None))
    s.s_refit;
  Array.blit s.s_last_loads 0 t.last_loads 0 t.m;
  Array.blit s.s_consec_missing 0 t.consec_missing 0 t.m;
  t.have_last <- s.s_have_last;
  Telemetry.set_counters t.tel s.s_counters;
  set_fit_gauges t;
  (* Frozen weights are restored verbatim so the first post-resume bins use
     exactly the weights the interrupted run froze (kill/resume
     bit-identity); the factor and prior caches are derived state and
     rebuild deterministically on the next step. *)
  t.frozen_weights <-
    Option.map (fun (lvl, w) -> (lvl, Array.copy w)) s.s_frozen;
  (* The restored estimator state replaces the freshly calibrated one so
     the first post-resume [observe]-dependent stages see exactly what the
     interrupted run had learned. *)
  (match (t.plugin, s.s_estimator) with
  | Some ((module E), _), Some st ->
      t.plugin <- Some ((module E : Estimator.S), Estimator.state_copy st)
  | _ -> ());
  t
