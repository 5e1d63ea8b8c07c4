module Vec = Ic_linalg.Vec
module Mat = Ic_linalg.Mat

let design_matrix ~f ~preference =
  if f < 0. || f > 1. then invalid_arg "Estimate_a.design_matrix: f out of [0,1]";
  let n = Array.length preference in
  let p = Vec.normalize_sum preference in
  Mat.init (2 * n) n (fun r k ->
      if r < n then begin
        (* ingress row i: f A_i + (1-f) P_i sum_k A_k *)
        let i = r in
        ((1. -. f) *. p.(i)) +. (if k = i then f else 0.)
      end
      else begin
        (* egress row j: f P_j sum_k A_k + (1-f) A_j *)
        let j = r - n in
        (f *. p.(j)) +. (if k = j then 1. -. f else 0.)
      end)

(* The design and its Gram depend only on (f, preference) — for a streaming
   engine those are frozen between refits, so per bin only the right-hand
   side changes. A cache freezes the design and one [Nnls.system] on its
   Gram, and answers each bin with one [mulv_t] plus [Nnls.solve_system]:
   the full solve that starts every bin's NNLS skips the per-bin
   refactorization, and a bin that leaves the interior on a passive set an
   earlier bin of the regime met reuses the factor a fresh system would
   compute, so a bin's answer does not depend on which cache gives it.
   [activities] is a one-bin cache, and [prior_series] one cache for every
   bin. *)
type cache = { c_n : int; c_design : Mat.t; c_system : Ic_linalg.Nnls.system }

let make_cache ~f ~preference =
  let design = design_matrix ~f ~preference in
  {
    c_n = Array.length preference;
    c_design = design;
    c_system = Ic_linalg.Nnls.system (Mat.gram design);
  }

let activities_cached cache ~ingress ~egress =
  let n = cache.c_n in
  if Array.length ingress <> n || Array.length egress <> n then
    invalid_arg "Estimate_a.activities_cached: dimension mismatch";
  let b = Array.append ingress egress in
  Ic_linalg.Nnls.solve_system cache.c_system (Mat.mulv_t cache.c_design b)

let activities ~f ~preference ~ingress ~egress =
  let n = Array.length preference in
  if Array.length ingress <> n || Array.length egress <> n then
    invalid_arg "Estimate_a.activities: dimension mismatch";
  activities_cached (make_cache ~f ~preference) ~ingress ~egress

let prior_series ~f ~preference series =
  if Array.length preference <> Ic_traffic.Series.size series then
    invalid_arg "Estimate_a.prior_series: dimension mismatch";
  let cache = make_cache ~f ~preference in
  Ic_traffic.Series.map
    (fun tm ->
      let activity =
        activities_cached cache ~ingress:(Ic_traffic.Marginals.ingress tm)
          ~egress:(Ic_traffic.Marginals.egress tm)
      in
      Model.simplified ~f ~activity ~preference)
    series
