(* Golden-equivalence tests for the allocation-free batched kernels: every
   workspace/plan path must reproduce its naive reference on seeded random
   instances. The kernels are written to match the reference operation for
   operation, so the tolerances here are far below anything the estimation
   tests would notice. The fit has no second implementation; it is checked
   against an independent optimizer instead, and its bits are pinned. *)

module Vec = Ic_linalg.Vec
module Mat = Ic_linalg.Mat
module Chol = Ic_linalg.Chol
module Workspace = Ic_linalg.Workspace
module Tm = Ic_traffic.Tm
module Series = Ic_traffic.Series
module Tomogravity = Ic_estimation.Tomogravity
module Routing = Ic_topology.Routing

let feq = Alcotest.(check (float 1e-12))

(* Relative-error check: |a - b| <= tol * max(|a|, |b|, 1). *)
let check_rel ~tol msg a b =
  let scale = Float.max (Float.max (Float.abs a) (Float.abs b)) 1. in
  if Float.abs (a -. b) > tol *. scale then
    Alcotest.failf "%s: %.17g vs %.17g (rel err %.3g > %.3g)" msg a b
      (Float.abs (a -. b) /. scale)
      tol

let check_vec_rel ~tol msg a b =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: length mismatch" msg;
  Array.iteri (fun i x -> check_rel ~tol (Printf.sprintf "%s[%d]" msg i) x b.(i)) a

let check_tm_rel ~tol msg a b =
  check_vec_rel ~tol msg (Tm.to_vector a) (Tm.to_vector b)

let spd_matrix rng n =
  let b = Mat.init n n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  Mat.add (Mat.gram b) (Mat.scale (float_of_int n) (Mat.identity n))

(* --- Chol into-variants vs the allocating reference --- *)

let test_factorize_into_matches () =
  let rng = Ic_prng.Rng.create 101 in
  for trial = 0 to 4 do
    let n = 5 + (7 * trial) in
    let a = spd_matrix rng n in
    let l = Mat.create n n in
    match (Chol.factorize a, Chol.factorize_into ~l a) with
    | Ok ch_ref, Ok ch_into ->
        let b = Array.init n (fun _ -> Ic_prng.Rng.float_range rng (-2.) 2.) in
        let x_ref = Chol.solve ch_ref b in
        let x_into = Array.copy b in
        Chol.solve_into ch_into x_into;
        Array.iteri
          (fun i x -> feq (Printf.sprintf "solve[%d] n=%d" i n) x x_into.(i))
          x_ref
    | _ -> Alcotest.fail "factorization failed on an SPD matrix"
  done

let test_factorize_into_shift () =
  let rng = Ic_prng.Rng.create 102 in
  let n = 13 in
  let a = spd_matrix rng n in
  let shift = 0.37 in
  let shifted =
    Mat.init n n (fun i j ->
        if i = j then Mat.get a i j +. shift else Mat.get a i j)
  in
  let l = Mat.create n n in
  match (Chol.factorize shifted, Chol.factorize_into ~shift ~l a) with
  | Ok ch_ref, Ok ch_into ->
      let b = Array.init n (fun _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
      let x_ref = Chol.solve ch_ref b in
      let x_into = Array.copy b in
      Chol.solve_into ch_into x_into;
      Array.iteri
        (fun i x -> feq (Printf.sprintf "shifted solve[%d]" i) x x_into.(i))
        x_ref
  | _ -> Alcotest.fail "factorization failed"

let test_factorize_ridge_into_matches () =
  let rng = Ic_prng.Rng.create 103 in
  let n = 17 in
  (* rank-deficient: Gram of a wide matrix, so the ridge loop engages *)
  let b = Mat.init (n / 2) n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let g = Mat.gram b in
  let ch_ref = Chol.factorize_ridge ~ridge:Chol.default_ridge g in
  let l = Mat.create n n in
  let ch_into = Chol.factorize_ridge_into ~ridge:Chol.default_ridge ~l g in
  let rhs = Array.init n (fun _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let x_ref = Chol.solve ch_ref rhs in
  let x_into = Array.copy rhs in
  Chol.solve_into ch_into x_into;
  Array.iteri (fun i x -> feq (Printf.sprintf "ridge solve[%d]" i) x x_into.(i)) x_ref

let test_factorize_into_not_pd () =
  let a = Mat.init 3 3 (fun i j -> if i = j then -1. else 0.) in
  let l = Mat.create 3 3 in
  match Chol.factorize_into ~l a with
  | Error (`Not_positive_definite 0) -> ()
  | Ok _ -> Alcotest.fail "negative-definite matrix factorized"
  | Error (`Not_positive_definite k) ->
      Alcotest.failf "wrong pivot index %d" k

(* --- Workspace kernels vs Mat/Vec references --- *)

let test_workspace_kernels () =
  let rng = Ic_prng.Rng.create 104 in
  let n = 9 in
  let a = Mat.init n n (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  (* a zero entry of z exercises the row that Mat.mulv_t skips *)
  let z =
    Array.init n (fun i ->
        if i = 3 then 0. else Ic_prng.Rng.float_range rng (-1.) 1.)
  in
  let y = Array.init n (fun _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let u = Array.make n 1234. and v = Array.make n 1234. in
  Workspace.mulv_pair a.Mat.data z u v;
  let exact = Alcotest.(check (float 0.)) in
  Array.iteri
    (fun i x -> exact (Printf.sprintf "X z [%d]" i) x u.(i))
    (Mat.mulv a z);
  Array.iteri
    (fun i x -> exact (Printf.sprintf "Xᵀ z [%d]" i) x v.(i))
    (Mat.mulv_t a z);
  (* syr: rank-1 update against the dense construction *)
  let s = spd_matrix rng n in
  let expected =
    Mat.init n n (fun i j -> Mat.get s i j +. (0.5 *. y.(i) *. y.(j)))
  in
  Workspace.syr ~alpha:0.5 y s;
  Alcotest.(check bool) "syr" true (Mat.approx_equal ~tol:1e-12 expected s)

let test_workspace_buffer_reuse () =
  let ws = Workspace.create () in
  let v1 = Workspace.vec ws "a" 5 in
  v1.(0) <- 42.;
  let v2 = Workspace.vec ws "a" 5 in
  Alcotest.(check bool) "same buffer" true (v1 == v2);
  feq "contents preserved" 42. v2.(0);
  let v3 = Workspace.zero_vec ws "a" 5 in
  feq "zeroed" 0. v3.(0);
  let v4 = Workspace.vec ws "a" 7 in
  Alcotest.(check int) "resized" 7 (Array.length v4);
  let m1 = Workspace.mat ws "m" 3 4 in
  Mat.set m1 0 0 7.;
  let m2 = Workspace.mat ws "m" 3 4 in
  Alcotest.(check bool) "same mat" true (m1 == m2);
  feq "mat contents preserved" 7. (Mat.get m2 0 0)

(* --- Sparse in-place products --- *)

let test_sparse_into_matches () =
  let module Sparse = Ic_linalg.Sparse in
  let rng = Ic_prng.Rng.create 105 in
  let rows = 11 and cols = 8 in
  let triplets = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Ic_prng.Rng.float_range rng 0. 1. < 0.3 then
        triplets := (i, j, Ic_prng.Rng.float_range rng (-2.) 2.) :: !triplets
    done
  done;
  let s = Sparse.of_triplets ~rows ~cols !triplets in
  let x = Array.init cols (fun _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let y = Array.init rows (fun _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let into = Array.make rows 999. in
  Sparse.mulv_into s x ~into;
  Array.iteri (fun i v -> feq (Printf.sprintf "mulv[%d]" i) v into.(i)) (Sparse.mulv s x);
  let into_t = Array.make cols 999. in
  Sparse.mulv_t_into s y ~into:into_t;
  Array.iteri
    (fun i v -> feq (Printf.sprintf "mulv_t[%d]" i) v into_t.(i))
    (Sparse.mulv_t s y)

(* --- Tomogravity plan vs per-bin estimate --- *)

let binning = Ic_timeseries.Timebin.five_min

(* A noisy IC-model series on a small ring-with-chords topology. *)
let make_world seed =
  let graph = Ic_topology.Topologies.abilene_like () in
  let routing = Routing.build graph in
  let n = Ic_topology.Graph.node_count graph in
  let rng = Ic_prng.Rng.create seed in
  let bins = 12 in
  let tms =
    Array.init bins (fun _ ->
        Tm.init n (fun i j ->
            if i = j then 0.
            else Ic_prng.Sampler.lognormal rng ~mu:10. ~sigma:1.2))
  in
  let series = Series.make binning tms in
  (routing, series)

let test_plan_gram_matches () =
  let routing, series = make_world 7 in
  let plan = Tomogravity.make_plan routing in
  for k = 0 to 2 do
    let weights = Vec.clamp_nonneg (Tm.to_vector (Series.tm series k)) in
    let g_ref = Tomogravity.weighted_gram routing weights in
    let g_plan = Tomogravity.plan_weighted_gram plan weights in
    Alcotest.(check bool)
      (Printf.sprintf "gram bin %d" k)
      true
      (Mat.approx_equal ~tol:0. g_ref g_plan)
  done

let test_estimate_with_plan_matches () =
  let routing, series = make_world 8 in
  let plan = Tomogravity.make_plan routing in
  let bins = Series.length series in
  for k = 0 to bins - 1 do
    let truth = Series.tm series k in
    let y = Routing.link_loads routing (Tm.to_vector truth) in
    let prior = Ic_gravity.Gravity.of_tm truth in
    let reference = Tomogravity.estimate routing ~link_loads:y ~prior in
    let planned = Tomogravity.estimate_with_plan plan ~link_loads:y ~prior in
    check_tm_rel ~tol:1e-9 (Printf.sprintf "estimate bin %d" k) reference planned
  done

(* One plan reused across a whole series (its factor cache and scratch
   buffers carried from bin to bin) matches a fresh one-shot estimate per
   bin, for both solvers. *)
let test_plan_reuse_matches () =
  let routing, series = make_world 9 in
  let bins = Series.length series in
  List.iter
    (fun (label, solver) ->
      let plan = Tomogravity.make_plan routing in
      for k = 0 to bins - 1 do
        let truth = Series.tm series k in
        let y = Routing.link_loads routing (Tm.to_vector truth) in
        let prior = Ic_gravity.Gravity.of_tm truth in
        let reference =
          Tomogravity.estimate ~solver routing ~link_loads:y ~prior
        in
        let reused =
          Tomogravity.estimate_with_plan ~solver plan ~link_loads:y ~prior
        in
        check_tm_rel ~tol:1e-9
          (Printf.sprintf "%s bin %d" label k)
          reference reused
      done)
    [ ("cholesky", Tomogravity.Cholesky); ("cg", Tomogravity.Cg) ]

let test_estimate_with_plan_validation () =
  let routing, series = make_world 10 in
  let plan = Tomogravity.make_plan routing in
  let prior = Ic_gravity.Gravity.of_tm (Series.tm series 0) in
  Alcotest.check_raises "bad link loads"
    (Invalid_argument "Tomogravity.estimate: link-load dimension mismatch")
    (fun () ->
      ignore (Tomogravity.estimate_with_plan plan ~link_loads:[| 1. |] ~prior))

let test_entropy_plan_matches () =
  let routing, series = make_world 11 in
  let plan = Tomogravity.make_plan routing in
  let truth = Series.tm series 0 in
  let y = Routing.link_loads routing (Tm.to_vector truth) in
  let prior = Ic_gravity.Gravity.of_tm truth in
  let reference = Ic_estimation.Entropy.estimate routing ~link_loads:y ~prior in
  let planned =
    Ic_estimation.Entropy.estimate ~plan routing ~link_loads:y ~prior
  in
  check_tm_rel ~tol:1e-9 "entropy" reference planned

(* --- Fit against the projected-gradient oracle --- *)

let make_fit_series seed =
  let n = 8 and bins = 10 in
  let rng = Ic_prng.Rng.create seed in
  let preference =
    Vec.normalize_sum
      (Array.init n (fun _ -> Ic_prng.Sampler.lognormal rng ~mu:(-2.) ~sigma:1.))
  in
  let activity =
    Array.init bins (fun t ->
        Array.init n (fun i ->
            (1.5 +. sin (float_of_int (t + i)))
            *. Ic_prng.Sampler.lognormal rng ~mu:8. ~sigma:0.4))
  in
  let params : Ic_core.Params.stable_fp = { f = 0.3; preference; activity } in
  let series = Ic_core.Model.stable_fp params binning in
  Series.map
    (fun tm ->
      Tm.init (Tm.size tm) (fun i j ->
          Tm.get tm i j *. exp (Ic_prng.Sampler.normal rng ~mu:0. ~sigma:0.05)))
    series

(* Block-coordinate descent and projected gradient minimize the same
   surrogate by different methods; driven to convergence on the same data,
   they must land on the same minimum. *)
let test_fit_matches_pgd () =
  List.iter
    (fun seed ->
      let series = make_fit_series seed in
      let bcd = Ic_core.Fit.fit_stable_fp series in
      let pgd =
        Ic_core.Pgd.fit_stable_fp
          ~options:
            { Ic_core.Pgd.default_options with max_iters = 5000; tol = 1e-12 }
          series
      in
      let msg = Printf.sprintf "series %d" seed in
      let df = Float.abs (bcd.params.f -. pgd.params.f) in
      if df > 1e-4 then
        Alcotest.failf "%s: f %.9f vs %.9f" msg bcd.params.f pgd.params.f;
      let de =
        Float.abs (bcd.mean_error -. pgd.mean_error)
        /. Float.max bcd.mean_error pgd.mean_error
      in
      if de > 1e-4 then
        Alcotest.failf "%s: mean error %.9f vs %.9f" msg bcd.mean_error
          pgd.mean_error;
      let r =
        Ic_stats.Corr.pearson bcd.params.preference pgd.params.preference
      in
      if r < 0.9999 then
        Alcotest.failf "%s: preference correlation %.6f" msg r)
    [ 21; 22; 23 ]

(* --- Fitter bit pins --- *)

(* Every float a fit returns, by its bits, hashed into one digest next to
   the fit's scalars. The fitters' refactorings (shared factors, memoized
   passive sets, fused error passes) are all meant to repeat the same
   arithmetic in the same order, so these strings must not move; a change
   that moves them on purpose re-pins them and says why. They record the
   sweeps on per-bin matrix-vector products, whose rounding the tolerance
   oracle below holds to the earlier scatter kernels'. Re-pinned once
   since, when the activity block moved from a Cholesky solve with a
   Lawson–Hanson fallback to the closed form [Nnls.solve_rank_one]: every
   fit's bits moved at rounding level, and its sweeps and basin flags did
   not. *)
let fit_pin ~f ~preference ~activity (r : _ Ic_core.Fit.fitted) =
  let b = Buffer.create 4096 in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  Array.iter add f;
  Array.iter (Array.iter add) preference;
  Array.iter (Array.iter add) activity;
  Array.iter add r.per_bin_error;
  Printf.sprintf "%s mean %h sweeps %d both %b"
    (Digest.to_hex (Digest.string (Buffer.contents b)))
    r.mean_error r.sweeps r.both_basins

let stable_fp_pin (r : Ic_core.Params.stable_fp Ic_core.Fit.fitted) =
  fit_pin ~f:[| r.params.f |] ~preference:[| r.params.preference |]
    ~activity:r.params.activity r

let test_fit_bit_pins () =
  let fit = Ic_core.Fit.fit_stable_fp in
  let cold = fit (make_fit_series 31) in
  (* A warm refit on the next window, as the engine runs it: from the cold
     fit's f, guarded by an incumbent error. One above the warm error keeps
     the guard quiet; one far below fires it, so the mirrored descent runs
     too. *)
  let next = make_fit_series 32 in
  let warm incumbent =
    fit
      ~options:{ Ic_core.Fit.default_options with f_init = cold.params.f }
      ~incumbent next
  in
  let quiet = warm (cold.mean_error *. 2.) in
  let firing = warm (cold.mean_error /. 4.) in
  Alcotest.(check bool) "guard quiet" false quiet.both_basins;
  Alcotest.(check bool) "guard fires" true firing.both_basins;
  let stable_f = Ic_core.Fit.fit_stable_f (make_fit_series 33) in
  let time_varying = Ic_core.Fit.fit_time_varying (make_fit_series 34) in
  List.iter
    (fun (name, expected, got) -> Alcotest.(check string) name expected got)
    [
      ( "stable_fp cold",
        "d70a9c9a59d72bdb9d1227b889f0f844 mean 0x1.c1498b015434ep-6 sweeps 8 \
         both true",
        stable_fp_pin cold );
      ( "stable_fp warm, guard quiet",
        "018c035fcd612a9e1ff3b8077b08fde3 mean 0x1.4e4e13e50af34p-5 sweeps 7 \
         both false",
        stable_fp_pin quiet );
      ( "stable_fp warm, guard fires",
        "018c035fcd612a9e1ff3b8077b08fde3 mean 0x1.4e4e13e50af34p-5 sweeps 7 \
         both true",
        stable_fp_pin firing );
      ( "stable_f",
        "5206a62426443efa5ce646f08505520c mean 0x1.447b63942d01ap-5 sweeps 14 \
         both true",
        fit_pin ~f:[| stable_f.params.f |]
          ~preference:stable_f.params.preference
          ~activity:stable_f.params.activity stable_f );
      ( "time_varying",
        "fd6b87f3420488ecc4cb802ef741887f mean 0x1.1ff8be9b4c60ap-5 sweeps 27 \
         both true",
        fit_pin ~f:time_varying.params.f
          ~preference:time_varying.params.preference
          ~activity:time_varying.params.activity time_varying );
    ]

(* --- Fit tolerance oracle --- *)

(* A change that re-associates the fits' sums moves their bits at rounding
   level only. This holds what such a change may not move, on the Géant
   data the engine refits: a cold week fit, a chain of warm day-window
   refits run as the engine runs them, a stable-f fit of two days and a
   time-varying fit of 48 bins. Their f, preferences and mean errors must
   stay within [oracle_tol] relative of the values recorded in
   [fit_oracle.expected], and their sweep counts and basin flags exactly.
   The stable-f preferences are held on every 24th bin, which keeps the
   recorded file small. *)
let oracle_tol = 1e-10

type oracle = Floats of float array | Exact of string

let oracle_fit name ~f ~preferences (r : _ Ic_core.Fit.fitted) =
  ((name ^ ".f", Floats f)
  :: List.map
       (fun (suffix, p) -> (name ^ ".preference" ^ suffix, Floats p))
       preferences)
  @ [
      (name ^ ".mean_error", Floats [| r.mean_error |]);
      (name ^ ".sweeps", Exact (string_of_int r.sweeps));
      (name ^ ".both_basins", Exact (string_of_bool r.both_basins));
    ]

let oracle_records () =
  let week = (Ic_datasets.Geant.generate ~weeks:1 ()).series in
  let day = 288 in
  let stable_fp name (r : Ic_core.Params.stable_fp Ic_core.Fit.fitted) =
    oracle_fit name ~f:[| r.params.f |]
      ~preferences:[ ("", r.params.preference) ]
      r
  in
  let cold = Ic_core.Fit.fit_stable_fp week in
  (* Each refit starts from the previous fit's f, with its mean error as
     the incumbent, and runs at most the engine's 6 sweeps. *)
  let refits =
    List.init (Series.length week / day) Fun.id
    |> List.fold_left
         (fun ((prev : Ic_core.Params.stable_fp Ic_core.Fit.fitted), acc) k ->
           let r =
             Ic_core.Fit.fit_stable_fp
               ~options:
                 {
                   Ic_core.Fit.default_options with
                   max_sweeps = 6;
                   f_init = prev.params.f;
                 }
               ~incumbent:prev.mean_error
               (Series.sub week ~pos:(k * day) ~len:day)
           in
           (r, acc @ [ r ]))
         (cold, [])
    |> snd
  in
  Alcotest.(check bool)
    "a refit fires the guard" true
    (List.exists (fun (r : _ Ic_core.Fit.fitted) -> r.both_basins) refits);
  let stable_f =
    Ic_core.Fit.fit_stable_f (Series.sub week ~pos:0 ~len:(2 * day))
  in
  let time_varying =
    Ic_core.Fit.fit_time_varying (Series.sub week ~pos:0 ~len:48)
  in
  let at_bins step ps =
    List.filter_map
      (fun t ->
        if t mod step = 0 then Some (Printf.sprintf ".%d" t, ps.(t)) else None)
      (List.init (Array.length ps) Fun.id)
  in
  List.concat
    [
      stable_fp "week" cold;
      List.concat
        (List.mapi (fun k r -> stable_fp (Printf.sprintf "refit%d" k) r) refits);
      oracle_fit "stable_f" ~f:[| stable_f.params.f |]
        ~preferences:(at_bins 24 stable_f.params.preference) stable_f;
      oracle_fit "time_varying" ~f:time_varying.params.f
        ~preferences:(at_bins 1 time_varying.params.preference) time_varying;
    ]

(* One line per record: its key, then its values (floats to 17 digits). *)
let oracle_line (key, v) =
  let values =
    match v with
    | Floats xs -> Array.to_list (Array.map (Printf.sprintf "%.17g") xs)
    | Exact s -> [ s ]
  in
  String.concat " " (key :: values)

let test_fit_tolerance_oracle () =
  let path =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "fit_oracle.expected"
  in
  let expected =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let got = oracle_records () in
  Alcotest.(check (list string))
    "recorded keys"
    (List.map (fun line -> List.hd (String.split_on_char ' ' line)) expected)
    (List.map fst got);
  List.iter2
    (fun line (key, v) ->
      match v with
      | Exact _ -> Alcotest.(check string) key line (oracle_line (key, v))
      | Floats xs ->
          let values = List.tl (String.split_on_char ' ' line) in
          Alcotest.(check int)
            (key ^ " length") (List.length values) (Array.length xs);
          List.iteri
            (fun i s ->
              let e = float_of_string s and x = xs.(i) in
              let scale = Float.max (Float.abs x) (Float.abs e) in
              if not (Float.abs (x -. e) <= oracle_tol *. scale) then
                Alcotest.failf "%s[%d]: %.17g vs recorded %.17g (rel err %.3g)"
                  key i x e
                  (Float.abs (x -. e) /. scale))
            values)
    expected got

(* --- Estimate_a.prior_series hoist --- *)

let test_prior_series_matches_per_bin () =
  let series = make_fit_series 24 in
  let n = Series.size series in
  let rng = Ic_prng.Rng.create 25 in
  let preference =
    Vec.normalize_sum (Array.init n (fun _ -> Ic_prng.Rng.float_range rng 0.5 2.))
  in
  let f = 0.28 in
  let prior = Ic_core.Estimate_a.prior_series ~f ~preference series in
  for k = 0 to Series.length series - 1 do
    let tm = Series.tm series k in
    let activity =
      Ic_core.Estimate_a.activities ~f ~preference
        ~ingress:(Ic_traffic.Marginals.ingress tm)
        ~egress:(Ic_traffic.Marginals.egress tm)
    in
    let expected = Ic_core.Model.simplified ~f ~activity ~preference in
    check_tm_rel ~tol:1e-9
      (Printf.sprintf "prior bin %d" k)
      expected (Series.tm prior k)
  done

(* --- Bit oracles: the per-bin kernels against their one-sum loops --- *)

(* The per-bin kernels run independent sums side by side, and each sum
   keeps the operands and the order of the loops below, which run one sum
   at a time. Each oracle compares the two bit for bit on instances drawn
   from a qcheck seed, and tallies the shapes it met, so a generator that
   stops producing a shape fails the test too. *)

module Rng = Ic_prng.Rng
module Sparse = Ic_linalg.Sparse

let bits a = Array.map Int64.bits_of_float a

let same_bits a b = bits a = bits b

let seeds = QCheck.int_bound 1_000_000_000

let oracle ~count name prop =
  QCheck.Test.check_exn (QCheck.Test.make ~count ~name seeds prop)

(* [sizes.(k)] counts the cases of size k + 1. *)
let tally_sizes name sizes =
  Array.iteri
    (fun k c -> if c = 0 then Alcotest.failf "%s: no case of size %d" name (k + 1))
    sizes

let tally name cases =
  List.iter
    (fun (what, c) ->
      if !c = 0 then Alcotest.failf "%s met no case that %s" name what)
    cases

(* IPF reading the matrix six times per iteration: a row-sum pass and a
   column-sum pass for each of the row scaling, the column scaling and
   the convergence check. It also reports whether it seeded a row and a
   column. *)
let ipf_six_reads ~max_iter ~tol tm ~row_targets ~col_targets =
  let n = Tm.size tm in
  let row_total = Vec.sum row_targets in
  let col_total = Vec.sum col_targets in
  let col_targets =
    if col_total > 0. then Vec.scale (row_total /. col_total) col_targets
    else col_targets
  in
  let x = Tm.copy tm in
  let xd = Tm.unsafe_data x in
  let seed = 1e-9 *. Float.max row_total 1. /. float_of_int (n * n) in
  let seeded_row = ref false and seeded_col = ref false in
  for i = 0 to n - 1 do
    let row_sum = ref 0. in
    for j = 0 to n - 1 do
      row_sum := !row_sum +. xd.((i * n) + j)
    done;
    if row_targets.(i) > 0. && !row_sum <= 0. then begin
      seeded_row := true;
      for j = 0 to n - 1 do
        xd.((i * n) + j) <- seed
      done
    end
  done;
  for j = 0 to n - 1 do
    let col_sum = ref 0. in
    for i = 0 to n - 1 do
      col_sum := !col_sum +. xd.((i * n) + j)
    done;
    if col_targets.(j) > 0. && !col_sum <= 0. then begin
      seeded_col := true;
      for i = 0 to n - 1 do
        xd.((i * n) + j) <- Float.max xd.((i * n) + j) seed
      done
    end
  done;
  let marginal_error () =
    let err = ref 0. in
    let scale = Float.max row_total 1e-12 in
    for i = 0 to n - 1 do
      let row_sum = ref 0. in
      for j = 0 to n - 1 do
        row_sum := !row_sum +. xd.((i * n) + j)
      done;
      err := Float.max !err (Float.abs (!row_sum -. row_targets.(i)) /. scale)
    done;
    for j = 0 to n - 1 do
      let col_sum = ref 0. in
      for i = 0 to n - 1 do
        col_sum := !col_sum +. xd.((i * n) + j)
      done;
      err := Float.max !err (Float.abs (!col_sum -. col_targets.(j)) /. scale)
    done;
    !err
  in
  let iterations = ref 0 in
  let last_err = ref (marginal_error ()) in
  let continue_ = ref (!last_err > tol) in
  while !continue_ && !iterations < max_iter do
    incr iterations;
    for i = 0 to n - 1 do
      let row_sum = ref 0. in
      for j = 0 to n - 1 do
        row_sum := !row_sum +. xd.((i * n) + j)
      done;
      if !row_sum > 0. then begin
        let s = row_targets.(i) /. !row_sum in
        for j = 0 to n - 1 do
          xd.((i * n) + j) <- xd.((i * n) + j) *. s
        done
      end
    done;
    for j = 0 to n - 1 do
      let col_sum = ref 0. in
      for i = 0 to n - 1 do
        col_sum := !col_sum +. xd.((i * n) + j)
      done;
      if !col_sum > 0. then begin
        let s = col_targets.(j) /. !col_sum in
        for i = 0 to n - 1 do
          xd.((i * n) + j) <- xd.((i * n) + j) *. s
        done
      end
    done;
    last_err := marginal_error ();
    if !last_err <= tol then continue_ := false
  done;
  (x, !iterations, !last_err, !seeded_row, !seeded_col)

(* Sizes 1..9 cover every remainder of the two-row blocks; rows and
   columns left empty under a positive target make IPF seed them, and
   random zero patterns give targets it cannot meet. *)
let test_ipf_oracle () =
  let sizes = Array.make 9 0 in
  let seeded_rows = ref 0 and seeded_cols = ref 0 in
  let capped = ref 0 and short_capped = ref 0 and converged = ref 0 in
  oracle ~count:3000 "IPF two reads = six reads" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 9 in
      sizes.(n - 1) <- sizes.(n - 1) + 1;
      let zero_p = [| 0.; 0.2; 0.5 |].(Rng.int rng 3) in
      let empty_row = if Rng.int rng 3 = 0 then Rng.int rng n else -1 in
      let empty_col = if Rng.int rng 3 = 0 then Rng.int rng n else -1 in
      let tm =
        Tm.init n (fun i j ->
            if i = empty_row || j = empty_col || Rng.float rng < zero_p then 0.
            else Rng.float_range rng 0.1 100.)
      in
      let target () =
        if Rng.float rng < 0.1 then 0. else Rng.float_range rng 1. 1000.
      in
      let row_targets = Array.init n (fun _ -> target ()) in
      let col_targets = Array.init n (fun _ -> target ()) in
      let max_iter = if Rng.bool rng then 200 else Rng.int rng 5 in
      let tol = if Rng.bool rng then 1e-9 else 1e-4 in
      let {
        Ic_estimation.Ipf.tm = fitted;
        iterations = its;
        max_marginal_error;
        converged = conv;
      } =
        Ic_estimation.Ipf.fit ~max_iter ~tol tm ~row_targets ~col_targets
      in
      let x, iterations, err, seeded_row, seeded_col =
        ipf_six_reads ~max_iter ~tol tm ~row_targets ~col_targets
      in
      if seeded_row then incr seeded_rows;
      if seeded_col then incr seeded_cols;
      if conv then incr converged
      else if iterations = 200 then incr capped
      else incr short_capped;
      same_bits (Tm.unsafe_data fitted) (Tm.unsafe_data x)
      && its = iterations
      && Int64.bits_of_float max_marginal_error = Int64.bits_of_float err
      && conv = (err <= tol));
  tally_sizes "IPF oracle" sizes;
  tally "IPF oracle"
    [
      ("seeds a row", seeded_rows);
      ("seeds a column", seeded_cols);
      ("stops at the 200-iteration cap", capped);
      ("stops at a cap of 0-4 iterations", short_capped);
      ("converges", converged);
    ]

(* Forward substitution one row at a time, then the backward pass down the
   columns of l. *)
let solve_one_row ld n b =
  let y = Array.copy b in
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (ld.((i * n) + j) *. y.(j))
    done;
    y.(i) <- !acc /. ld.((i * n) + i)
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (ld.((j * n) + i) *. y.(j))
    done;
    y.(i) <- !acc /. ld.((i * n) + i)
  done;
  y

(* Sizes 1..13: every remainder of the four-row blocks, behind zero to
   three whole blocks. *)
let test_solve_oracle () =
  let sizes = Array.make 13 0 in
  oracle ~count:1000 "blocked forward substitution = one row at a time"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 13 in
      sizes.(n - 1) <- sizes.(n - 1) + 1;
      let a = spd_matrix rng n in
      let l = Mat.create n n in
      match Chol.factorize_into ~l a with
      | Error _ -> QCheck.Test.fail_report "SPD matrix did not factorize"
      | Ok ch ->
          let b = Array.init n (fun _ -> Rng.float_range rng (-2.) 2.) in
          let expected = solve_one_row l.Mat.data n b in
          let into = Array.copy b in
          Chol.solve_into ch into;
          let lt = Mat.create n n in
          Chol.transpose_into ch ~lt;
          let into_t = Array.copy b in
          Chol.solve_into_t ch ~lt into_t;
          same_bits expected into
          && same_bits expected into_t
          && same_bits expected (Chol.solve ch b));
  tally_sizes "solve oracle" sizes

(* X z and Xᵀ z one row at a time, skipping the rows where z is zero in
   Xᵀ z. *)
let mulv_pair_one_row x z =
  let n = Array.length z in
  let u = Array.make n 0. and v = Array.make n 0. in
  for i = 0 to n - 1 do
    let zi = z.(i) in
    let acc = ref 0. in
    if zi <> 0. then
      for j = 0 to n - 1 do
        acc := !acc +. (x.((i * n) + j) *. z.(j));
        v.(j) <- v.(j) +. (x.((i * n) + j) *. zi)
      done
    else
      for j = 0 to n - 1 do
        acc := !acc +. (x.((i * n) + j) *. z.(j))
      done;
    u.(i) <- !acc
  done;
  (u, v)

let test_mulv_pair_oracle () =
  let sizes = Array.make 9 0 in
  let zero_even = ref 0 and zero_odd = ref 0 and both_nonzero = ref 0 in
  oracle ~count:2000 "paired mulv_pair = one row at a time" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 9 in
      sizes.(n - 1) <- sizes.(n - 1) + 1;
      let x = Array.init (n * n) (fun _ -> Rng.float_range rng 0. 50.) in
      let z =
        Array.init n (fun i ->
            if Rng.float rng < 0.3 then begin
              incr (if i mod 2 = 0 then zero_even else zero_odd);
              0.
            end
            else Rng.float_range rng (-1.) 1.)
      in
      for i = 0 to n - 2 do
        if i mod 2 = 0 && z.(i) <> 0. && z.(i + 1) <> 0. then incr both_nonzero
      done;
      let u = Array.make n nan and v = Array.make n nan in
      Workspace.mulv_pair x z u v;
      let u', v' = mulv_pair_one_row x z in
      same_bits u u' && same_bits v v');
  tally_sizes "mulv_pair oracle" sizes;
  tally "mulv_pair oracle"
    [
      ("has a zero of z at an even row", zero_even);
      ("has a zero of z at an odd row", zero_odd);
      ("pairs two rows", both_nonzero);
    ]

(* R x one row at a time, each row summed in its stored order. *)
let mulv_one_row r x =
  Array.init (Sparse.rows r) (fun i ->
      let acc = ref 0. in
      Sparse.row_iter r i (fun j v -> acc := !acc +. (v *. x.(j)));
      !acc)

let row_length r i =
  let k = ref 0 in
  Sparse.row_iter r i (fun _ _ -> incr k);
  !k

let test_sparse_mulv_oracle () =
  let sizes = Array.make 9 0 in
  let empty_rows = ref 0 and unequal_pairs = ref 0 in
  oracle ~count:2000 "paired Sparse.mulv_into = one row at a time"
    (fun seed ->
      let rng = Rng.create seed in
      let rows = 1 + Rng.int rng 9 and cols = 1 + Rng.int rng 9 in
      sizes.(rows - 1) <- sizes.(rows - 1) + 1;
      let density = [| 0.1; 0.4; 0.8 |].(Rng.int rng 3) in
      let triplets = ref [] in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          if Rng.float rng < density then
            triplets := (i, j, Rng.float_range rng (-2.) 2.) :: !triplets
        done
      done;
      let r = Sparse.of_triplets ~rows ~cols !triplets in
      for i = 0 to rows - 1 do
        if row_length r i = 0 then incr empty_rows;
        if i mod 2 = 0 && i + 1 < rows && row_length r i <> row_length r (i + 1)
        then incr unequal_pairs
      done;
      let x = Array.init cols (fun _ -> Rng.float_range rng (-1.) 1.) in
      let y = Array.make rows nan in
      Sparse.mulv_into r x ~into:y;
      same_bits y (mulv_one_row r x) && same_bits y (Sparse.mulv r x));
  tally_sizes "sparse oracle" sizes;
  tally "sparse oracle"
    [
      ("has an empty row", empty_rows);
      ("pairs rows of unequal length", unequal_pairs);
    ]

(* A ring with random chords, so every OD pair has a route. *)
let ring_with_chords rng ~nodes =
  let module Graph = Ic_topology.Graph in
  let names = Array.init nodes (fun i -> Printf.sprintf "n%d" i) in
  let g = ref (Graph.create ~names) in
  for i = 0 to nodes - 1 do
    g := Graph.add_link !g i ((i + 1) mod nodes)
  done;
  for _ = 1 to Rng.int rng 4 do
    let u = Rng.int rng nodes and v = Rng.int rng nodes in
    if u <> v && Graph.find_edge !g ~src:u ~dst:v = None then
      g := Graph.add_link ~weight:(1. +. float_of_int (Rng.int rng 3)) !g u v
  done;
  !g

(* The end of the plan's estimate as it was: Rᵀu scattered row by row
   (rows whose u is zero skipped), x0 + w∘(Rᵀu), then a clamped copy. The
   solve that gives u and the right-hand side run one row at a time too. *)
let estimate_scatter routing ~weights ~link_loads ~prior =
  let r = routing.Routing.matrix in
  let m = Sparse.rows r and n_od = Sparse.cols r in
  let x0 = Tm.to_vector prior in
  let w =
    match weights with
    | Some w -> w
    | None -> Array.map (fun x -> if x < 0. then 0. else x) x0
  in
  let rx0 = mulv_one_row r x0 in
  let rhs = Array.mapi (fun i y -> y -. rx0.(i)) link_loads in
  if Vec.nrm2 rhs <= 1e-12 *. Float.max (Vec.nrm2 link_loads) 1. then
    (Tm.to_vector prior, 0)
  else begin
    let l = Mat.create m m in
    let plan = Tomogravity.make_plan routing in
    ignore
      (Chol.factorize_ridge_into ~ridge:Chol.default_ridge ~l
         (Tomogravity.plan_weighted_gram plan w));
    let u = solve_one_row l.Mat.data m rhs in
    let corr = Array.make n_od 0. in
    for i = 0 to m - 1 do
      let ui = u.(i) in
      if ui <> 0. then
        Sparse.row_iter r i (fun j v -> corr.(j) <- corr.(j) +. (v *. ui))
    done;
    let out = Array.init n_od (fun s -> x0.(s) +. (w.(s) *. corr.(s))) in
    let clamped =
      Array.fold_left (fun c v -> if v < 0. then c + 1 else c) 0 out
    in
    (Array.map (fun x -> if x < 0. then 0. else x) out, clamped)
  end

let test_tomogravity_gather_oracle () =
  let clamped_cases = ref 0 and clean_cases = ref 0 in
  let given_weights = ref 0 and own_weights = ref 0 in
  oracle ~count:300 "Rᵀu gathered from the plan = scattered row by row"
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 6 in
      let routing = Routing.build (ring_with_chords rng ~nodes) in
      let draw zero_p =
        Tm.init nodes (fun _ _ ->
            if Rng.float rng < zero_p then 0.
            else exp (Rng.float_range rng 8. 14.))
      in
      let truth = draw 0.1 in
      (* A prior unrelated to the truth, so corrections often go negative. *)
      let prior = draw 0.3 in
      let link_loads = Routing.link_loads routing (Tm.to_vector truth) in
      let weights =
        if Rng.bool rng then begin
          incr given_weights;
          Some (Tm.to_vector (draw 0.2))
        end
        else begin
          incr own_weights;
          None
        end
      in
      let plan = Tomogravity.make_plan routing in
      let got =
        Tomogravity.estimate_with_plan ?weights plan ~link_loads ~prior
      in
      let expected, clamped =
        estimate_scatter routing ~weights ~link_loads ~prior
      in
      incr (if clamped > 0 then clamped_cases else clean_cases);
      same_bits (Tm.unsafe_data got) expected
      && Tomogravity.plan_last_clamp_count plan = clamped);
  tally "gather oracle"
    [
      ("clamps a negative correction", clamped_cases);
      ("clamps nothing", clean_cases);
      ("takes the caller's weights", given_weights);
      ("derives the weights from the prior", own_weights);
    ]

(* The per-bin priors and the marginals as they were written: each TM
   through [Tm.init]'s closure, each marginal through [Tm.get]. *)
let simplified_by_init ~f ~activity ~preference =
  let p = Vec.scale (1. /. Vec.sum preference) preference in
  Tm.init (Array.length p) (fun i j ->
      (f *. activity.(i) *. p.(j)) +. ((1. -. f) *. activity.(j) *. p.(i)))

let gravity_by_init ~ingress ~egress =
  let total = sqrt (Vec.sum ingress *. Vec.sum egress) in
  Tm.init (Array.length ingress) (fun i j ->
      Float.max 0. (ingress.(i) *. egress.(j) /. total))

let marginals_by_get tm =
  let n = Tm.size tm in
  let sum get =
    Array.init n (fun a ->
        let acc = ref 0. in
        for b = 0 to n - 1 do
          acc := !acc +. get a b
        done;
        !acc)
  in
  (sum (Tm.get tm), sum (fun j i -> Tm.get tm i j))

(* Sizes 1..9, with zero activities, preferences and marginals drawn a
   fifth of the time each, and f at both ends of [0, 1] as well as inside
   it. *)
let test_prior_oracle () =
  let sizes = Array.make 9 0 in
  let zero_activity = ref 0 and zero_preference = ref 0 and zero_marginal = ref 0 in
  let f_ends = ref 0 in
  oracle ~count:2000 "per-bin priors and marginals = their Tm.init forms"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 9 in
      sizes.(n - 1) <- sizes.(n - 1) + 1;
      let draw count =
        Array.init n (fun _ ->
            if Rng.float rng < 0.2 then begin
              incr count;
              0.
            end
            else exp (Rng.float_range rng (-5.) 15.))
      in
      let activity = draw zero_activity in
      let preference = draw zero_preference in
      (* a preference must not sum to zero *)
      let k = Rng.int rng n in
      if preference.(k) = 0. then preference.(k) <- 1.;
      let f =
        match Rng.int rng 4 with
        | 0 -> incr f_ends; 0.
        | 1 -> incr f_ends; 1.
        | _ -> Rng.float rng
      in
      let ingress = draw zero_marginal and egress = draw zero_marginal in
      if ingress.(k) = 0. then ingress.(k) <- 1.;
      if egress.(k) = 0. then egress.(k) <- 2.;
      let ic = Ic_core.Model.simplified ~f ~activity ~preference in
      let gravity = Ic_gravity.Gravity.from_marginals ~ingress ~egress in
      let row_sums, col_sums = marginals_by_get ic in
      same_bits (Tm.unsafe_data ic)
        (Tm.unsafe_data (simplified_by_init ~f ~activity ~preference))
      && same_bits (Tm.unsafe_data gravity)
           (Tm.unsafe_data (gravity_by_init ~ingress ~egress))
      && same_bits (Ic_traffic.Marginals.ingress ic) row_sums
      && same_bits (Ic_traffic.Marginals.egress ic) col_sums);
  tally_sizes "prior oracle" sizes;
  tally "prior oracle"
    [
      ("has a zero activity", zero_activity);
      ("has a zero preference", zero_preference);
      ("has a zero marginal", zero_marginal);
      ("puts f at 0 or 1", f_ends);
    ]

let () =
  Alcotest.run "ic_perf_kernels"
    [
      ( "chol",
        [
          Alcotest.test_case "factorize_into matches factorize" `Quick
            test_factorize_into_matches;
          Alcotest.test_case "factorize_into with shift" `Quick
            test_factorize_into_shift;
          Alcotest.test_case "factorize_ridge_into matches" `Quick
            test_factorize_ridge_into_matches;
          Alcotest.test_case "factorize_into rejects non-PD" `Quick
            test_factorize_into_not_pd;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "in-place kernels match Mat" `Quick
            test_workspace_kernels;
          Alcotest.test_case "buffer reuse" `Quick test_workspace_buffer_reuse;
          Alcotest.test_case "sparse into-products match" `Quick
            test_sparse_into_matches;
        ] );
      ( "tomogravity plan",
        [
          Alcotest.test_case "plan gram matches naive" `Quick
            test_plan_gram_matches;
          Alcotest.test_case "estimate_with_plan matches estimate" `Quick
            test_estimate_with_plan_matches;
          Alcotest.test_case "plan reuse matches per-bin" `Quick
            test_plan_reuse_matches;
          Alcotest.test_case "validation errors preserved" `Quick
            test_estimate_with_plan_validation;
          Alcotest.test_case "entropy with plan matches" `Quick
            test_entropy_plan_matches;
        ] );
      ( "fit kernels",
        [
          Alcotest.test_case "stable_fp agrees with Pgd" `Quick
            test_fit_matches_pgd;
          Alcotest.test_case "fitter bit pins" `Quick test_fit_bit_pins;
          Alcotest.test_case "tolerance oracle on Geant" `Quick
            test_fit_tolerance_oracle;
          Alcotest.test_case "prior_series matches per-bin solves" `Quick
            test_prior_series_matches_per_bin;
        ] );
      ( "bit oracles",
        [
          Alcotest.test_case "IPF two reads" `Quick test_ipf_oracle;
          Alcotest.test_case "blocked forward substitution" `Quick
            test_solve_oracle;
          Alcotest.test_case "paired mulv_pair" `Quick test_mulv_pair_oracle;
          Alcotest.test_case "paired Sparse.mulv_into" `Quick
            test_sparse_mulv_oracle;
          Alcotest.test_case "Rᵀu gathered from the plan" `Quick
            test_tomogravity_gather_oracle;
          Alcotest.test_case "priors and marginals written in place" `Quick
            test_prior_oracle;
        ] );
    ]
