type t = { xs : float array; probs : float array }

let of_sample sample =
  let n = Array.length sample in
  if n = 0 then invalid_arg "Ccdf.of_sample: empty sample";
  let xs = Array.copy sample in
  Array.sort compare xs;
  let probs =
    Array.init n (fun k -> float_of_int (n - k - 1) /. float_of_int n)
  in
  { xs; probs }

let exponential ~rate x = if x < 0. then 1. else exp (-.rate *. x)

(* Abramowitz & Stegun 7.1.26 erf approximation: max abs error 1.5e-7,
   plenty for goodness-of-fit comparisons. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let y =
    1.
    -. (((((1.061405429 *. t -. 1.453152027) *. t) +. 1.421413741) *. t
         -. 0.284496736)
        *. t
       +. 0.254829592)
       *. t
       *. exp (-.x *. x)
  in
  sign *. y

let std_normal_cdf x = 0.5 *. (1. +. erf (x /. sqrt 2.))

let lognormal ~mu ~sigma x =
  if x <= 0. then 1.
  else 1. -. std_normal_cdf ((log x -. mu) /. sigma)

let log_log_points t =
  let acc = ref [] in
  for k = Array.length t.xs - 1 downto 0 do
    if t.xs.(k) > 0. && t.probs.(k) > 0. then
      acc := (t.xs.(k), t.probs.(k)) :: !acc
  done;
  !acc
