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

let activities ~f ~preference ~ingress ~egress =
  let n = Array.length preference in
  if Array.length ingress <> n || Array.length egress <> n then
    invalid_arg "Estimate_a.activities: dimension mismatch";
  let design = design_matrix ~f ~preference in
  let b = Array.append ingress egress in
  Ic_linalg.Nnls.solve design b

(* The design and its Gram depend only on (f, preference) — for a streaming
   engine those are frozen between refits, so per bin only the right-hand
   side changes. A cache freezes the design and one [Nnls.system] on its
   Gram, and answers each bin with one [mulv_t] plus [Nnls.solve_system]:
   the full solve that starts every bin's NNLS skips the per-bin
   refactorization, and a bin that leaves the interior on a passive set an
   earlier bin of the regime met reuses its factor, so it returns
   [activities]' bits. *)
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

let prior_series ~f ~preference series =
  let n = Ic_traffic.Series.size series in
  if Array.length preference <> n then
    invalid_arg "Estimate_a.prior_series: dimension mismatch";
  (* The design depends only on (f, preference), so one NNLS system on its
     Gram serves every bin; per bin only the right-hand side changes.
     [Nnls.solve design b] is exactly [solve_gram (gram design)
     (design^T b)], and a shared system answers as [solve_gram] does, so
     this matches per-bin [activities] bit for bit. *)
  let design = design_matrix ~f ~preference in
  let sys = Ic_linalg.Nnls.system (Mat.gram design) in
  let tms =
    Array.init (Ic_traffic.Series.length series) (fun k ->
        let tm = Ic_traffic.Series.tm series k in
        let ingress = Ic_traffic.Marginals.ingress tm in
        let egress = Ic_traffic.Marginals.egress tm in
        let b = Array.append ingress egress in
        let activity = Ic_linalg.Nnls.solve_system sys (Mat.mulv_t design b) in
        Model.simplified ~f ~activity ~preference)
  in
  Ic_traffic.Series.make series.Ic_traffic.Series.binning tms
