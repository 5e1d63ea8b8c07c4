let distance sample cdf =
  let n = Array.length sample in
  if n = 0 then invalid_arg "Ks.distance: empty sample";
  let xs = Array.copy sample in
  Array.sort compare xs;
  let nf = float_of_int n in
  let d = ref 0. in
  for k = 0 to n - 1 do
    let f = cdf xs.(k) in
    let lo = float_of_int k /. nf in
    let hi = float_of_int (k + 1) /. nf in
    d := Float.max !d (Float.max (Float.abs (f -. lo)) (Float.abs (f -. hi)))
  done;
  !d
