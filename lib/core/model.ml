let check_inputs name ~activity ~preference =
  let n = Array.length preference in
  if Array.length activity <> n then
    invalid_arg (Printf.sprintf "Model.%s: dimension mismatch" name);
  if Array.exists (fun x -> x < 0.) activity then
    invalid_arg (Printf.sprintf "Model.%s: negative activity" name);
  if Array.exists (fun x -> x < 0.) preference then
    invalid_arg (Printf.sprintf "Model.%s: negative preference" name);
  n

let normalized name preference =
  let s = Ic_linalg.Vec.sum preference in
  if s <= 0. then invalid_arg (Printf.sprintf "Model.%s: zero preference" name);
  Ic_linalg.Vec.scale (1. /. s) preference

let simplified ~f ~activity ~preference =
  if f < 0. || f > 1. then invalid_arg "Model.simplified: f out of [0,1]";
  let n = check_inputs "simplified" ~activity ~preference in
  let p = normalized "simplified" preference in
  (* Written in place rather than through [Tm.init]'s closure, which boxes
     every entry; each entry keeps the expression below. Non-negative
     inputs and f in [0, 1] give non-negative entries. *)
  let tm = Ic_traffic.Tm.create n in
  let x = Ic_traffic.Tm.unsafe_data tm in
  for i = 0 to n - 1 do
    let fa = f *. activity.(i) and pi = p.(i) in
    for j = 0 to n - 1 do
      x.((i * n) + j) <- (fa *. p.(j)) +. ((1. -. f) *. activity.(j) *. pi)
    done
  done;
  tm

let general ~f_matrix ~activity ~preference =
  let n = check_inputs "general" ~activity ~preference in
  let rows, cols = Ic_linalg.Mat.dims f_matrix in
  if rows <> n || cols <> n then
    invalid_arg "Model.general: f_matrix dimension mismatch";
  let p = normalized "general" preference in
  Ic_traffic.Tm.init n (fun i j ->
      let fij = Ic_linalg.Mat.get f_matrix i j in
      let fji = Ic_linalg.Mat.get f_matrix j i in
      (fij *. activity.(i) *. p.(j))
      +. ((1. -. fji) *. activity.(j) *. p.(i)))

let stable_fp (params : Params.stable_fp) binning =
  let tms =
    Array.map
      (fun activity ->
        simplified ~f:params.f ~activity ~preference:params.preference)
      params.activity
  in
  Ic_traffic.Series.make binning tms

let predicted_ingress ~f ~activity ~preference =
  let n = check_inputs "predicted_ingress" ~activity ~preference in
  let p = normalized "predicted_ingress" preference in
  let s = Ic_linalg.Vec.sum activity in
  Array.init n (fun i -> (f *. activity.(i)) +. ((1. -. f) *. p.(i) *. s))

let predicted_egress ~f ~activity ~preference =
  let n = check_inputs "predicted_egress" ~activity ~preference in
  let p = normalized "predicted_egress" preference in
  let s = Ic_linalg.Vec.sum activity in
  Array.init n (fun j -> (f *. p.(j) *. s) +. ((1. -. f) *. activity.(j)))

(* Section 3's example: equal forward/reverse volumes (f = 1/2), uniform
   responder preference, activities 600/12/6 total connection bytes. *)
let fig2_example () =
  simplified ~f:0.5 ~activity:[| 600.; 12.; 6. |]
    ~preference:[| 1.; 1.; 1. |]

let conditional_egress tm ~egress ~ingress =
  let row = (Ic_traffic.Marginals.ingress tm).(ingress) in
  if row <= 0. then
    invalid_arg "Model.conditional_egress: node originates no traffic";
  Ic_traffic.Tm.get tm ingress egress /. row

let marginal_egress tm ~egress =
  let tot = Ic_traffic.Tm.total tm in
  if tot <= 0. then invalid_arg "Model.marginal_egress: empty TM";
  (Ic_traffic.Marginals.egress tm).(egress) /. tot
