let require_nonempty name xs =
  if Array.length xs = 0 then
    invalid_arg (Printf.sprintf "Descriptive.%s: empty input" name)

let mean xs =
  require_nonempty "mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  require_nonempty "variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let m = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min xs =
  require_nonempty "min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  require_nonempty "max" xs;
  Array.fold_left Float.max xs.(0) xs

let quantile xs q =
  require_nonempty "quantile" xs;
  if q < 0. || q > 1. then invalid_arg "Descriptive.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let w = pos -. float_of_int lo in
    ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let median xs = quantile xs 0.5

let summary xs =
  require_nonempty "summary" xs;
  Printf.sprintf "n=%d mean=%.4g sd=%.4g min=%.4g med=%.4g max=%.4g"
    (Array.length xs) (mean xs) (stddev xs) (min xs) (median xs) (max xs)

type histogram = { edges : float array; counts : int array }

let histogram ?(bins = 20) xs =
  require_nonempty "histogram" xs;
  if bins <= 0 then invalid_arg "Descriptive.histogram: bins must be positive";
  let lo = min xs and hi = max xs in
  let hi = if hi > lo then hi else lo +. 1. in
  let width = (hi -. lo) /. float_of_int bins in
  let edges = Array.init (bins + 1) (fun k -> lo +. (float_of_int k *. width)) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let k = int_of_float ((x -. lo) /. width) in
      let k = if k >= bins then bins - 1 else if k < 0 then 0 else k in
      counts.(k) <- counts.(k) + 1)
    xs;
  { edges; counts }
