type t = float array

let create n = Array.make n 0.



let copy = Array.copy

let check_same_dim name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

let dot x y =
  check_same_dim "dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let amax v =
  let m = ref 0. in
  for i = 0 to Array.length v - 1 do
    let a = Float.abs v.(i) in
    if a > !m then m := a
  done;
  !m

(* Scaled two-pass Euclidean norm: avoids overflow/underflow on extreme
   magnitudes, which matter for byte-count traffic volumes (~1e9+). *)
let nrm2 v =
  let m = amax v in
  if m = 0. then 0.
  else begin
    let acc = ref 0. in
    for i = 0 to Array.length v - 1 do
      let r = v.(i) /. m in
      acc := !acc +. (r *. r)
    done;
    m *. sqrt !acc
  end

let nrm2_diff x y =
  check_same_dim "nrm2_diff" x y;
  let m = ref 0. in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs (x.(i) -. y.(i)) in
    if a > !m then m := a
  done;
  let m = !m in
  if m = 0. then 0.
  else begin
    let acc = ref 0. in
    for i = 0 to Array.length x - 1 do
      let r = (x.(i) -. y.(i)) /. m in
      acc := !acc +. (r *. r)
    done;
    m *. sqrt !acc
  end

let sum v =
  let acc = ref 0. in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. v.(i)
  done;
  !acc

let mean v =
  if Array.length v = 0 then invalid_arg "Vec.mean: empty vector";
  sum v /. float_of_int (Array.length v)

let scale a v = Array.map (fun x -> a *. x) v

let scale_inplace a v =
  for i = 0 to Array.length v - 1 do
    v.(i) <- a *. v.(i)
  done

let add x y =
  check_same_dim "add" x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_same_dim "sub" x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let mul x y =
  check_same_dim "mul" x y;
  Array.mapi (fun i xi -> xi *. y.(i)) x

let axpy a x y =
  check_same_dim "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let map = Array.map

let max_index v =
  if Array.length v = 0 then invalid_arg "Vec.max_index: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) > v.(!best) then best := i
  done;
  !best

let clamp_nonneg v = Array.map (fun x -> if x < 0. then 0. else x) v

let normalize_sum v =
  let s = sum v in
  if s <= 0. then invalid_arg "Vec.normalize_sum: sum not positive";
  scale (1. /. s) v

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Float.abs (x.(i) -. y.(i)) > tol then ok := false
  done;
  !ok

