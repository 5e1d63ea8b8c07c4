(* Each sum runs from 0 in index order over the backing row-major array. *)
let ingress tm =
  let n = Tm.size tm and x = Tm.unsafe_data tm in
  let r = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref 0. in
    for j = 0 to n - 1 do
      acc := !acc +. Array.unsafe_get x ((i * n) + j)
    done;
    r.(i) <- !acc
  done;
  r

(* Every column's sum at once, a row at a time: column j still adds rows
   0 .. n - 1 in order. *)
let egress tm =
  let n = Tm.size tm and x = Tm.unsafe_data tm in
  let r = Array.make n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Array.unsafe_set r j (Array.unsafe_get r j +. Array.unsafe_get x ((i * n) + j))
    done
  done;
  r

let total = Tm.total

let egress_shares tm =
  let tot = total tm in
  if tot <= 0. then invalid_arg "Marginals.egress_shares: empty TM";
  Ic_linalg.Vec.scale (1. /. tot) (egress tm)

let mean_egress_shares tms =
  if Array.length tms = 0 then
    invalid_arg "Marginals.mean_egress_shares: empty series";
  let n = Tm.size tms.(0) in
  let acc = Array.make n 0. in
  Array.iter
    (fun tm ->
      let s = egress_shares tm in
      Ic_linalg.Vec.axpy 1. s acc)
    tms;
  Ic_linalg.Vec.scale (1. /. float_of_int (Array.length tms)) acc
