let autocorrelation xs lag =
  let n = Array.length xs in
  if lag < 0 || lag >= n then invalid_arg "Acf.autocorrelation: bad lag";
  let m = Ic_stats.Descriptive.mean xs in
  let denom = ref 0. in
  for i = 0 to n - 1 do
    let d = xs.(i) -. m in
    denom := !denom +. (d *. d)
  done;
  if !denom = 0. then invalid_arg "Acf.autocorrelation: constant series";
  let num = ref 0. in
  for i = 0 to n - lag - 1 do
    num := !num +. ((xs.(i) -. m) *. (xs.(i + lag) -. m))
  done;
  !num /. !denom

let periodicity_strength xs ~period = autocorrelation xs period
