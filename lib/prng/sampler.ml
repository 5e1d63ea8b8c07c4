let uniform rng ~lo ~hi = Rng.float_range rng lo hi

let normal rng ~mu ~sigma =
  (* Box–Muller; guard against log 0 by nudging u1 away from zero. *)
  let u1 = Float.max (Rng.float rng) 1e-300 in
  let u2 = Rng.float rng in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)

let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Sampler.exponential: rate must be positive";
  let u = Float.max (Rng.float rng) 1e-300 in
  -.log u /. rate

let pareto rng ~alpha ~x_min =
  if alpha <= 0. || x_min <= 0. then
    invalid_arg "Sampler.pareto: parameters must be positive";
  let u = Float.max (Rng.float rng) 1e-300 in
  x_min /. (u ** (1. /. alpha))

let poisson rng ~lambda =
  if lambda < 0. then invalid_arg "Sampler.poisson: negative mean";
  if lambda = 0. then 0
  else if lambda <= 64. then begin
    (* Knuth: multiply uniforms until below exp(-lambda) *)
    let threshold = exp (-.lambda) in
    let rec loop k p =
      let p = p *. Rng.float rng in
      if p <= threshold then k else loop (k + 1) p
    in
    loop 0 1.
  end
  else begin
    let x = normal rng ~mu:lambda ~sigma:(sqrt lambda) in
    let r = Float.round x in
    if r < 0. then 0 else int_of_float r
  end
