module Estimator = Ic_estimation.Estimator
module Pipeline = Ic_estimation.Pipeline
module Series = Ic_traffic.Series
module Tm = Ic_traffic.Tm
module Routing = Ic_topology.Routing

(* A TM dataset for the Abilene-like graph, so the shootout ranks the
   families on a third topology scale (11 nodes vs Geant's 23 and Totem's
   larger mesh). Same generator as Geant/Totem, rescaled to Abilene's
   smaller aggregate and slightly higher forward fraction (the paper's
   Section 4 traces sit in the 0.2-0.3 band). *)
let abilene_spec ?(weeks = 1) () : Ic_datasets.Dataset.spec =
  {
    (Ic_datasets.Geant.spec ~weeks ()) with
    name = "abilene";
    graph = Ic_topology.Topologies.abilene_like ();
    f_base = 0.26;
    mean_total_bytes = 9.0e8;
  }

let dataset_names = [ "abilene"; "geant"; "totem" ]

let spec_of_name = function
  | "abilene" -> abilene_spec ~weeks:1 ()
  | "geant" -> { (Ic_datasets.Geant.spec ~weeks:1 ()) with weeks = 1 }
  | "totem" -> { (Ic_datasets.Totem.spec ~weeks:1 ()) with weeks = 1 }
  | d ->
      invalid_arg
        (Printf.sprintf "unknown dataset %s (available: %s)" d
           (String.concat " " dataset_names))

type row = {
  dataset : string;
  estimator : string;
  mean_error : float;  (** CV mean RelL2 over every test bin *)
  p50_us : float option;  (** median per-bin latency; [None] with timing off *)
  clamped : int;
  frontier : bool;
}

(* Seeded Fisher-Yates; fold of bin i = position of i in the permutation
   mod folds. Deterministic for a given (seed, m, folds). *)
let fold_assignment ~seed ~folds m =
  let rng = Ic_prng.Rng.create (0x5400 + seed) in
  let perm = Array.init m Fun.id in
  for i = m - 1 downto 1 do
    let j = Ic_prng.Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let fold = Array.make m 0 in
  Array.iteri (fun pos bin -> fold.(bin) <- pos mod folds) perm;
  fold

let subsample ~stride series =
  let n = Series.length series in
  let m = (n + stride - 1) / stride in
  Series.make series.Series.binning
    (Array.init m (fun k -> Series.tm series (k * stride)))

let select series idxs =
  Series.make series.Series.binning
    (Array.map (Series.tm series) (Array.of_list idxs))

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Per-bin latency measured on the calibrated state through the same
   three-stage path the batch driver runs, one fresh plan per call site. *)
let time_bins (module E : Estimator.S) state ~routing ~plan series =
  List.init (Series.length series) (fun k ->
      let loads =
        Routing.link_loads routing (Tm.to_vector (Series.tm series k))
      in
      let ctx = Estimator.make_ctx ~routing ~plan ~link_loads:loads ~bin:k () in
      let t0 = Ic_obs.Clock.now () in
      ignore (Estimator.estimate_bin (module E) state ctx : Tm.t * int);
      (Ic_obs.Clock.now () -. t0) *. 1e6)

let run_one ~routing ~series ~folds ~seed ~timing name =
  let (module E : Estimator.S) = Estimator.find_exn name in
  let m = Series.length series in
  let fold = fold_assignment ~seed ~folds m in
  let err_sum = ref 0. and err_bins = ref 0 and clamped = ref 0 in
  let timings = ref [] in
  for f = 0 to folds - 1 do
    let test = ref [] and train = ref [] in
    for k = m - 1 downto 0 do
      if fold.(k) = f then test := k :: !test else train := k :: !train
    done;
    let train_series = select series !train in
    let test_series = select series !test in
    let result =
      Pipeline.run_estimator
        (module E)
        ~routing ~train:train_series ~truth:test_series ()
    in
    Array.iter (fun e -> err_sum := !err_sum +. e) result.Pipeline.per_bin_error;
    err_bins := !err_bins + Array.length result.Pipeline.per_bin_error;
    clamped := !clamped + result.Pipeline.clamped_entries;
    if timing then begin
      let state = E.calibrate ~routing ~train:(Some train_series) in
      let plan = Ic_estimation.Tomogravity.make_plan routing in
      timings :=
        time_bins (module E) state ~routing ~plan test_series @ !timings
    end
  done;
  {
    dataset = "";
    estimator = name;
    mean_error = (if !err_bins = 0 then nan else !err_sum /. float !err_bins);
    p50_us = (if timing then Some (median !timings) else None);
    clamped = !clamped;
    frontier = false;
  }

(* Non-dominated on (error, latency); error alone when timing is off. *)
let mark_frontier rows =
  List.map
    (fun r ->
      let dominated =
        List.exists
          (fun o ->
            o.estimator <> r.estimator
            && o.mean_error <= r.mean_error
            &&
            match (o.p50_us, r.p50_us) with
            | Some lo, Some lr ->
                lo <= lr && (o.mean_error < r.mean_error || lo < lr)
            | _ -> o.mean_error < r.mean_error)
          rows
      in
      { r with frontier = not dominated })
    rows

let run ?estimators ?(folds = 3) ?(seed = 42) ?(stride = 21) ?(timing = true)
    ~datasets () =
  let estimators =
    match estimators with Some e -> e | None -> Estimator.names ()
  in
  List.iter
    (fun n -> ignore (Estimator.find_exn n : (module Estimator.S)))
    estimators;
  List.concat_map
    (fun ds ->
      let spec = spec_of_name ds in
      let data = Ic_datasets.Dataset.generate spec ~seed in
      let routing = Routing.build data.Ic_datasets.Dataset.graph in
      let series = subsample ~stride (Ic_datasets.Dataset.week data 0) in
      let rows =
        List.map (run_one ~routing ~series ~folds ~seed ~timing) estimators
      in
      let rows =
        List.stable_sort
          (fun a b -> compare a.mean_error b.mean_error)
          rows
      in
      List.map (fun r -> { r with dataset = ds }) (mark_frontier rows))
    datasets

let render ~folds ~seed ~stride ~timing rows =
  let pr fmt = Printf.printf fmt in
  pr "shootout: folds=%d seed=%d stride=%d timing=%s\n" folds seed stride
    (if timing then "on" else "off");
  pr "%-9s %-22s %12s %10s  %s\n" "dataset" "estimator" "mean-RelL2" "us/bin"
    "pareto";
  List.iter
    (fun r ->
      let lat =
        match r.p50_us with Some t -> Printf.sprintf "%.1f" t | None -> "-"
      in
      pr "%-9s %-22s %12.4f %10s%s\n" r.dataset r.estimator r.mean_error lat
        (if r.frontier then "  *" else ""))
    rows;
  let datasets =
    List.fold_left
      (fun acc r -> if List.mem r.dataset acc then acc else r.dataset :: acc)
      [] rows
    |> List.rev
  in
  List.iter
    (fun ds ->
      let front =
        List.filter_map
          (fun r ->
            if r.dataset = ds && r.frontier then Some r.estimator else None)
          rows
      in
      pr "pareto %s: %s\n" ds (String.concat " " front))
    datasets
