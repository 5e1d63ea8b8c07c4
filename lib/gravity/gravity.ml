module Vec = Ic_linalg.Vec
module Tm = Ic_traffic.Tm

let from_marginals ~ingress ~egress =
  let n = Array.length ingress in
  if Array.length egress <> n then
    invalid_arg "Gravity.from_marginals: dimension mismatch";
  let tin = Vec.sum ingress and tout = Vec.sum egress in
  if tin <= 0. || tout <= 0. then
    invalid_arg "Gravity.from_marginals: non-positive totals";
  let total = sqrt (tin *. tout) in
  (* Written in place rather than through [Tm.init]'s closure, which boxes
     every entry. *)
  let tm = Tm.create n in
  let x = Tm.unsafe_data tm in
  for i = 0 to n - 1 do
    let gi = ingress.(i) in
    for j = 0 to n - 1 do
      x.((i * n) + j) <- Float.max 0. (gi *. egress.(j) /. total)
    done
  done;
  tm

let of_tm tm =
  from_marginals
    ~ingress:(Ic_traffic.Marginals.ingress tm)
    ~egress:(Ic_traffic.Marginals.egress tm)

let of_series series =
  let n = Ic_traffic.Series.size series in
  let tms =
    Array.init (Ic_traffic.Series.length series) (fun k ->
        let tm = Ic_traffic.Series.tm series k in
        if Tm.total tm <= 0. then Tm.create n else of_tm tm)
  in
  Ic_traffic.Series.make series.Ic_traffic.Series.binning tms

let conditional_independence_gap tm =
  let n = Tm.size tm in
  let total = Tm.total tm in
  if total <= 0. then invalid_arg "Gravity.conditional_independence_gap: empty TM";
  let ingress = Ic_traffic.Marginals.ingress tm in
  let egress = Ic_traffic.Marginals.egress tm in
  let gap = ref 0. in
  for i = 0 to n - 1 do
    if ingress.(i) > 0. then
      for j = 0 to n - 1 do
        let conditional = Tm.get tm i j /. ingress.(i) in
        let marginal = egress.(j) /. total in
        gap := Float.max !gap (Float.abs (conditional -. marginal))
      done
  done;
  !gap
