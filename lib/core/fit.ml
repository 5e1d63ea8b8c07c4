module Vec = Ic_linalg.Vec
module Mat = Ic_linalg.Mat
module Ws = Ic_linalg.Workspace
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series

type options = {
  max_sweeps : int;
  tol : float;
  f_init : float;
  f_bounds : float * float;
}

let default_options =
  { max_sweeps = 40; tol = 1e-6; f_init = 0.25; f_bounds = (0., 1.) }

type 'p fitted = {
  params : 'p;
  per_bin_error : float array;
  mean_error : float;
  sweeps : int;
  both_basins : bool;
}

(* Block subproblems. The model of bin t, X = f A Pᵀ + (1 - f) P Aᵀ, is
   bilinear, so every block sees the bin's matrix only through the
   products X z and Xᵀ z, and has a closed-form Gram. With
   α = f² + (1 - f)² and β = 2f(1 - f):

   - activities: Gram α‖p‖² I + β p pᵀ, right-hand side
     f X p + (1 - f) Xᵀ p;
   - preferences: Gram Σ_t w_t (α‖A_t‖² I + β A_t A_tᵀ), right-hand side
     Σ_t w_t (f Xᵀ A_t + (1 - f) X A_t).

   A sweep thus reads each bin's matrix twice, once per block, and keeps
   X A_t and Xᵀ A_t for the f solve and the errors. The Gram matrices,
   right-hand sides, products and Cholesky factors live in a workspace
   shared by every bin, sweep and basin of one fit run.

   The activity Gram is d I + b p pᵀ, a scaled identity plus a rank-one
   term, so [Nnls.solve_rank_one] solves its block in closed form, O(n)
   per bin with no factor. On the Géant day windows the engine refits,
   29% of the activity solves leave the interior, and the closed form
   finds their support exactly too, in two or three Newton steps.

   [nonneg_solver ws g c] solves the preference block G x = c under
   x >= 0, factoring G in the workspace's factor buffer. Preferences are
   interior for realistic traffic, so it tries a plain Cholesky solve
   first and falls back to NNLS only when that goes negative, through an
   NNLS system on the same factor: the fallback starts from this solve's
   support. *)
let nonneg_solver ws g c =
  let n, _ = Mat.dims g in
  let l = Ws.mat ws "fit.chol" n n in
  match Ic_linalg.Chol.factorize_into ~l g with
  | Ok ch ->
      let x = Array.copy c in
      Ic_linalg.Chol.solve_into ch x;
      if Array.for_all (fun v -> v >= -1e-9 *. (1. +. Float.abs v)) x then
        Vec.clamp_nonneg x
      else Ic_linalg.Nnls.solve_system (Ic_linalg.Nnls.system ~factor:ch g) c
  | Error (`Not_positive_definite _) -> Ic_linalg.Nnls.solve_gram g c

(* One bin's share of a block's Gram at weight [w],
   w (α‖v‖² I + β v vᵀ) = d I + b v vᵀ, as (d, b). *)
let gram_coefficients ~f ~w v =
  ( w *. ((f *. f) +. ((1. -. f) *. (1. -. f))) *. Vec.dot v v,
    w *. 2. *. f *. (1. -. f) )

(* g <- g + d I + b v vᵀ. *)
let add_gram g ~f ~w v =
  let n = Array.length v in
  let d, b = gram_coefficients ~f ~w v in
  for i = 0 to n - 1 do
    g.Mat.data.((i * n) + i) <- g.Mat.data.((i * n) + i) +. d
  done;
  Ws.syr ~alpha:b v g

(* Activity subproblem. Its Gram depends only on (f, p), so
   [activity_solver ws ~f ~p] takes its coefficients once, and the solver
   it returns forms only each bin's right-hand side. The solver is valid
   until the next subproblem reuses the workspace. *)
let activity_solver ws ~f ~p =
  let n = Array.length p in
  let d, b = gram_coefficients ~f ~w:1. p in
  let u = Ws.vec ws "fit.u" n and v = Ws.vec ws "fit.v" n
  and c = Ws.vec ws "fit.c" n in
  fun tm ->
    Ws.mulv_pair (Tm.unsafe_data tm) p u v;
    for k = 0 to n - 1 do
      c.(k) <- (f *. u.(k)) +. ((1. -. f) *. v.(k))
    done;
    Ic_linalg.Nnls.solve_rank_one ~d ~b p c

(* Preference subproblem, bin t's share at weight [w]: its products X A and
   Xᵀ A go to row t of [xa] and [xta], and its Gram and right-hand side
   onto [g] and [c]. *)
let add_preference ws (xa, xta) ~g ~c ~f ~w t tm a =
  let n = Array.length a in
  let u = Ws.vec ws "fit.u" n and v = Ws.vec ws "fit.v" n in
  Ws.mulv_pair (Tm.unsafe_data tm) a u v;
  Array.blit u 0 xa.Mat.data (t * n) n;
  Array.blit v 0 xta.Mat.data (t * n) n;
  if w > 0. then begin
    add_gram g ~f ~w a;
    for k = 0 to n - 1 do
      c.(k) <- c.(k) +. (w *. ((f *. v.(k)) +. ((1. -. f) *. u.(k))))
    done
  end

(* Normalizes the preference solve [p] to the simplex, in place, and
   absorbs its sum into the activities of bins [lo, hi) and their
   products. *)
let normalize ~lo ~hi p activities (xa, xta) =
  let s = Vec.sum p in
  if s > 0. then begin
    Vec.scale_inplace (1. /. s) p;
    let n = Array.length p in
    for t = lo to hi - 1 do
      Vec.scale_inplace s activities.(t);
      for k = t * n to ((t + 1) * n) - 1 do
        xa.Mat.data.(k) <- s *. xa.Mat.data.(k);
        xta.Mat.data.(k) <- s *. xta.Mat.data.(k)
      done
    done
  end

(* The f solve and bin t's error see its model only through ‖A‖²‖p‖²,
   (A·p)², Aᵀ X p = p·(Xᵀ A) and pᵀ X A = p·(X A), none of which depends on
   f: [terms_into] writes them to row t of [terms] in one pass per bin, once
   a sweep, for every bin with a positive norm (the bins both read). *)
let terms_into terms norms (xa, xta) ~activities ~preferences =
  for t = 0 to Array.length norms - 1 do
    if norms.(t) > 0. then begin
      let a = activities.(t) and p = preferences t in
      let n = Array.length p in
      let aa = ref 0. and pp = ref 0. and ap = ref 0. in
      let axp = ref 0. and pxa = ref 0. in
      for k = 0 to n - 1 do
        let ak = a.(k) and pk = p.(k) in
        aa := !aa +. (ak *. ak);
        pp := !pp +. (pk *. pk);
        ap := !ap +. (ak *. pk);
        axp := !axp +. (pk *. xta.Mat.data.((t * n) + k));
        pxa := !pxa +. (pk *. xa.Mat.data.((t * n) + k))
      done;
      let d = terms.Mat.data in
      d.(4 * t) <- !aa *. !pp;
      d.((4 * t) + 1) <- !ap *. !ap;
      d.((4 * t) + 2) <- !axp;
      d.((4 * t) + 3) <- !pxa
    end
  done

(* Forward-fraction subproblem: X = f (A pᵀ - p Aᵀ) + p Aᵀ is linear in f;
   weighted scalar least squares, clamped into [bounds]. The slope
   A pᵀ - p Aᵀ has squared norm 2(‖A‖²‖p‖² - (A·p)²) and inner product
   Aᵀ X p - pᵀ X A - (A·p)² + ‖A‖²‖p‖² with X - p Aᵀ. *)
let solve_f ~bounds:(f_lo, f_hi) terms ~weights =
  let d = terms.Mat.data in
  let num = ref 0. and den = ref 0. in
  for t = 0 to Array.length weights - 1 do
    let w = weights.(t) in
    if w > 0. then begin
      let cross = d.(4 * t) -. d.((4 * t) + 1) in
      num := !num +. (w *. (d.((4 * t) + 2) -. d.((4 * t) + 3) +. cross));
      den := !den +. (w *. 2. *. cross)
    end
  done;
  if !den <= 0. then None
  else Some (Ic_linalg.Proj.box ~lo:f_lo ~hi:f_hi (!num /. !den))

let bin_norms ~visit tms =
  Array.map
    (fun tm ->
      visit ();
      Vec.nrm2 (Tm.unsafe_data tm))
    tms

let weights_of_norms norms =
  Array.map (fun nrm -> if nrm > 0. then 1. /. (nrm *. nrm) else 0.) norms

let rel_l2 tm model norm =
  if norm <= 0. then 0.
  else Vec.nrm2_diff (Tm.unsafe_data tm) (Tm.unsafe_data model) /. norm

(* Every bin's RelL2 into [errs], from ‖X - M‖² = ‖X‖² - 2⟨X, M⟩ + ‖M‖²
   (floored at 0), with ⟨X, M⟩ = f Aᵀ X p + (1 - f) pᵀ X A and
   ‖M‖² = α‖A‖²‖p‖² + β(A·p)²; returns the sum of their squares, the
   surrogate objective. After a descent's last sweep [errs] holds its
   per-bin errors. *)
let errors_into errs terms ~f norms =
  let alpha = (f *. f) +. ((1. -. f) *. (1. -. f))
  and beta = 2. *. f *. (1. -. f) in
  let d = terms.Mat.data in
  let obj = ref 0. in
  for t = 0 to Array.length errs - 1 do
    let norm = norms.(t) in
    let e =
      if norm <= 0. then 0.
      else begin
        let xm = (f *. d.((4 * t) + 2)) +. ((1. -. f) *. d.((4 * t) + 3)) in
        let mm = (alpha *. d.(4 * t)) +. (beta *. d.((4 * t) + 1)) in
        Float.sqrt (Float.max 0. ((norm *. norm) -. (2. *. xm) +. mm)) /. norm
      end
    in
    errs.(t) <- e;
    obj := !obj +. (e *. e)
  done;
  !obj

let mean_of errs =
  if Array.length errs = 0 then 0. else Vec.sum errs /. float_of_int (Array.length errs)

(* One descent's result; [dual_start] and [fit_time_varying] mark the runs
   that searched both basins. *)
let fitted params per_bin_error sweeps =
  {
    params;
    per_bin_error;
    mean_error = mean_of per_bin_error;
    sweeps;
    both_basins = false;
  }

(* Initial preferences via the closed-form Equation 12 at the starting f:
   egress shares alone are dominated by the activity shape when f < 1/2 and
   would start the descent inside the mirrored basin (see pick_basin). *)
let initial_preference ~visit ~f_init tms =
  let n = Tm.size tms.(0) in
  let ingress = Vec.create n and egress = Vec.create n in
  Array.iter
    (fun tm ->
      visit ();
      Vec.axpy 1. (Ic_traffic.Marginals.ingress tm) ingress;
      Vec.axpy 1. (Ic_traffic.Marginals.egress tm) egress)
    tms;
  let fallback () =
    let total = Vec.sum egress in
    if total > 0. then
      Vec.normalize_sum (Vec.map (fun x -> Float.max x 1e-12) egress)
    else Array.make n (1. /. float_of_int n)
  in
  match Closed_form.estimate ~f:f_init ~ingress ~egress with
  | Ok e ->
      Vec.normalize_sum
        (Vec.map (fun x -> Float.max x 1e-12) e.Closed_form.preference)
  | Error `F_near_half -> fallback ()
  | exception Invalid_argument _ -> fallback ()

(* The block-coordinate descent every fitter runs, from [options.f_init]
   and the preferences [p0]. [sweep ~weights ~prods f p] solves the
   activity and preference blocks at forward fraction [f], starting from
   preferences [p], returns the new preferences and activities, and leaves
   every bin's products with its activities in [prods]; [pref_at p t] is
   bin t's preference vector. The descent then solves f, scores every bin,
   and stops once the surrogate improves by at most [tol] relative to the
   previous sweep's, or after [max_sweeps] sweeps (checked >= 1). *)
let descend ws ~options ~visit ~sweep ~pref_at ~params p0 tms =
  let bins = Array.length tms and n = Tm.size tms.(0) in
  let norms = bin_norms ~visit tms in
  let weights = weights_of_norms norms in
  let errs = Ws.vec ws "fit.errs" bins in
  let terms = Ws.mat ws "fit.terms" bins 4 in
  let prods = (Ws.mat ws "fit.xa" bins n, Ws.mat ws "fit.xta" bins n) in
  let rec go f p prev sweeps =
    let p, activities = sweep ~weights ~prods f p in
    terms_into terms norms prods ~activities ~preferences:(pref_at p);
    let f =
      Option.value ~default:f (solve_f ~bounds:options.f_bounds terms ~weights)
    in
    let obj = errors_into errs terms ~f norms in
    let sweeps = sweeps + 1 in
    if
      sweeps >= options.max_sweeps
      || (Float.is_finite prev && prev -. obj <= options.tol *. Float.max prev 1e-12)
    then fitted (params f p activities) (Array.copy errs) sweeps
    else go f p obj sweeps
  in
  go options.f_init p0 infinity 0

let bins_of series = Array.init (Series.length series) (Series.tm series)

(* [visit] runs before each bin's body in the norms, the initial
   preference's marginals and both blocks of every sweep: the points at
   which a caller may spread the fit over several calls (see
   {!fit_stable_fp}). *)
let fit_stable_fp_single ws ~options ~visit series =
  let tms = bins_of series in
  let n = Series.size series in
  let sweep ~weights ~prods f p =
    let solve = activity_solver ws ~f ~p in
    let activities =
      Array.map
        (fun tm ->
          visit ();
          solve tm)
        tms
    in
    let g = Ws.zero_mat ws "fit.g" n n and c = Ws.zero_vec ws "fit.c" n in
    Array.iteri
      (fun t tm ->
        visit ();
        add_preference ws prods ~g ~c ~f ~w:weights.(t) t tm activities.(t))
      tms;
    let p = nonneg_solver ws g c in
    normalize ~lo:0 ~hi:(Array.length tms) p activities prods;
    (p, activities)
  in
  descend ws ~options ~visit ~sweep
    ~pref_at:(fun p _ -> p)
    ~params:(fun f preference activity : Params.stable_fp ->
      { f; preference; activity })
    (initial_preference ~visit ~f_init:options.f_init tms)
    tms

(* Per-bin preferences: bin t's preference block is its own one-bin
   subproblem, and an all-zero bin keeps the preference it had. *)
let fit_stable_f_single ws ~options series =
  let tms = bins_of series in
  let n = Series.size series in
  let sweep ~weights ~prods f prefs =
    let acts =
      Array.mapi (fun t tm -> activity_solver ws ~f ~p:prefs.(t) tm) tms
    in
    let prefs =
      Array.mapi
        (fun t tm ->
          let g = Ws.zero_mat ws "fit.g" n n and c = Ws.zero_vec ws "fit.c" n in
          let w = if weights.(t) > 0. then 1. else 0. in
          add_preference ws prods ~g ~c ~f ~w t tm acts.(t);
          if w > 0. then begin
            let p = nonneg_solver ws g c in
            normalize ~lo:t ~hi:(t + 1) p acts prods;
            p
          end
          else prefs.(t))
        tms
    in
    (prefs, acts)
  in
  descend ws ~options ~visit:ignore ~sweep ~pref_at:Array.get
    ~params:(fun f preference activity : Params.stable_f ->
      { f; preference; activity })
    (Array.make (Array.length tms)
       (initial_preference ~visit:ignore ~f_init:options.f_init tms))
    tms

(* The simplified IC model has a near-symmetry exchanging the roles of
   activity and preference: (f, A, P) and (1 - f, S P, A / S) produce the
   same TM whenever the activity profiles are (close to) rank one across
   (node, time). Block-coordinate descent can therefore converge into the
   mirrored basin. A cold fit runs the descent from both f_init and
   1 - f_init and keeps the solution with the smaller mean RelL2, breaking
   near-ties (3%) toward f < 1/2 — the physically meaningful,
   response-dominated branch the paper observes throughout. *)
let tie_margin a b = Float.max 1e-6 (0.03 *. Float.max a b)

let pick_basin f_of a b =
  if Float.abs (a.mean_error -. b.mean_error) <= tie_margin a.mean_error b.mean_error
  then if f_of a.params <= f_of b.params then a else b
  else if a.mean_error < b.mean_error then a
  else b

(* The two descents of a dual start: one confined to f <= 1/2 from the
   lower of f_init and 1 - f_init, one confined to f >= 1/2 from the
   upper. *)
let branch_options options =
  let lo_init = Float.min options.f_init (1. -. options.f_init) in
  ( { options with f_init = lo_init; f_bounds = (0., 0.5) },
    { options with f_init = 1. -. lo_init; f_bounds = (0.5, 1.) } )

let check_options options =
  if options.max_sweeps < 1 then invalid_arg "Fit: max_sweeps must be >= 1"

(* With an [incumbent] (the window mean RelL2 of the fit that produced
   f_init), only the branch of f_init's basin runs — the one [pick_basin]
   keeps on a stable stream (Fig 5: f barely moves between windows). The
   guard runs the mirrored branch too, and picks as a cold fit would, when
   the warm error exceeds the incumbent's beyond the tie margin or the warm
   f ends on the basins' shared bound 1/2. *)
let dual_start ?incumbent ~options fit f_of series =
  check_options options;
  let low, high = branch_options options in
  let both a b = { (pick_basin f_of a b) with both_basins = true } in
  match incumbent with
  | Some err when options.f_init <> 0.5 ->
      let in_low = options.f_init < 0.5 in
      let warm = fit ~options:(if in_low then low else high) series in
      if
        warm.mean_error -. err <= tie_margin warm.mean_error err
        && f_of warm.params <> 0.5
      then warm
      else begin
        let mirror = fit ~options:(if in_low then high else low) series in
        if in_low then both warm mirror else both mirror warm
      end
  | _ ->
      let a = fit ~options:low series in
      let b = fit ~options:high series in
      both a b

let f_of_stable_fp (p : Params.stable_fp) = p.f

let fit_stable_fp ?(options = default_options) ?incumbent ?(visit = ignore)
    series =
  let ws = Ws.create () in
  dual_start ?incumbent ~options
    (fit_stable_fp_single ws ~visit)
    f_of_stable_fp series

let fit_stable_f ?(options = default_options) series =
  let ws = Ws.create () in
  dual_start ~options
    (fit_stable_f_single ws)
    (fun (p : Params.stable_f) -> p.f)
    series

(* Equation 3 shares no parameter across bins, so each bin's fit is the
   cold stable-fP fit of that bin alone, and all of them share one
   workspace. [sweeps] is the most any bin's descent ran, in either
   basin. *)
let fit_time_varying ?(options = default_options) series =
  check_options options;
  let ws = Ws.create () in
  let sweeps = ref 0 in
  let fit ~options window =
    let r = fit_stable_fp_single ws ~options ~visit:ignore window in
    sweeps := Stdlib.max !sweeps r.sweeps;
    r
  in
  let bins =
    Array.init (Series.length series) (fun t ->
        dual_start ~options fit f_of_stable_fp (Series.sub series ~pos:t ~len:1))
  in
  let per_bin g = Array.map (fun (b : Params.stable_fp fitted) -> g b) bins in
  let params : Params.time_varying =
    {
      f = per_bin (fun b -> b.params.f);
      preference = per_bin (fun b -> b.params.preference);
      activity = per_bin (fun b -> b.params.activity.(0));
    }
  in
  let per_bin_error = per_bin (fun b -> b.per_bin_error.(0)) in
  { (fitted params per_bin_error !sweeps) with both_basins = true }

let fit_general_f (params : Params.stable_fp) series =
  let n = Params.nodes params in
  let p = params.preference in
  let fm = Mat.init n n (fun i j -> if i = j then params.f else 0.) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      (* Unknowns u = (f_ij, f_ji); per bin two residual rows:
         X_ij - b = a u1 - b u2 and X_ji - a = -a u1 + b u2,
         with a = A_i p_j, b = A_j p_i. *)
      let g11 = ref 0. and g12 = ref 0. and g22 = ref 0. in
      let c1 = ref 0. and c2 = ref 0. in
      Array.iteri
        (fun t activity ->
          let a = activity.(i) *. p.(j) and b = activity.(j) *. p.(i) in
          let tm = Series.tm series t in
          let r1 = Tm.get tm i j -. b and r2 = Tm.get tm j i -. a in
          (* row 1: (a, -b); row 2: (-a, b) *)
          g11 := !g11 +. (2. *. a *. a);
          g22 := !g22 +. (2. *. b *. b);
          g12 := !g12 -. (2. *. a *. b);
          c1 := !c1 +. ((a *. r1) -. (a *. r2));
          c2 := !c2 +. ((b *. r2) -. (b *. r1)))
        params.activity;
      (* 2x2 solve with a tiny ridge; the system is rank-1 when activities
         are proportional across bins, in which case we fall back to the
         symmetric solution f_ij = f_ji. *)
      let det = (!g11 *. !g22) -. (!g12 *. !g12) in
      let scale = Float.max (Float.abs !g11) (Float.abs !g22) in
      if det > 1e-9 *. scale *. scale && scale > 0. then begin
        let u1 = ((!g22 *. !c1) -. (!g12 *. !c2)) /. det in
        let u2 = ((!g11 *. !c2) -. (!g12 *. !c1)) /. det in
        Mat.set fm i j (Ic_linalg.Proj.box ~lo:0. ~hi:1. u1);
        Mat.set fm j i (Ic_linalg.Proj.box ~lo:0. ~hi:1. u2)
      end
      else begin
        Mat.set fm i j params.f;
        Mat.set fm j i params.f
      end
    done
  done;
  fm

let gravity_fit series =
  let n = Series.size series in
  let tms =
    Array.init (Series.length series) (fun k ->
        let tm = Series.tm series k in
        let ing = Ic_traffic.Marginals.ingress tm in
        let egr = Ic_traffic.Marginals.egress tm in
        let tot = Tm.total tm in
        if tot <= 0. then Tm.create n
        else Tm.init n (fun i j -> ing.(i) *. egr.(j) /. tot))
  in
  Series.make series.Series.binning tms

let per_bin_error data model =
  if Series.length data <> Series.length model then
    invalid_arg "Fit.per_bin_error: length mismatch";
  Array.init (Series.length data) (fun k ->
      let tm = Series.tm data k in
      let norm = Vec.nrm2 (Tm.unsafe_data tm) in
      rel_l2 tm (Series.tm model k) norm)
