let rel_l2_temporal truth estimate =
  if Tm.size truth <> Tm.size estimate then
    invalid_arg "Error.rel_l2_temporal: size mismatch";
  let xt = Tm.to_vector truth and xe = Tm.to_vector estimate in
  let denom = Ic_linalg.Vec.nrm2 xt in
  if denom <= 0. then invalid_arg "Error.rel_l2_temporal: all-zero truth";
  Ic_linalg.Vec.nrm2_diff xt xe /. denom

let rel_l2_series truth estimate =
  if Series.length truth <> Series.length estimate then
    invalid_arg "Error.rel_l2_series: length mismatch";
  Array.init (Series.length truth) (fun k ->
      rel_l2_temporal (Series.tm truth k) (Series.tm estimate k))

let improvement_pct ~baseline ~candidate =
  if baseline <= 0. then invalid_arg "Error.improvement_pct: bad baseline";
  100. *. (baseline -. candidate) /. baseline

let improvement_series ~baseline ~candidate =
  if Array.length baseline <> Array.length candidate then
    invalid_arg "Error.improvement_series: length mismatch";
  Array.mapi
    (fun k b -> improvement_pct ~baseline:b ~candidate:candidate.(k))
    baseline
