(* Keyed pools of scratch buffers for allocation-free inner loops.

   A workspace owns its buffers: a buffer is (re)allocated the first time a
   key is requested, or when the requested size changes, and reused on every
   later request. Hot paths that run once per time bin (tomogravity solves,
   fit sweeps) hoist a workspace outside the bin loop so the per-bin cost is
   pure arithmetic.

   The in-place kernels below mirror the corresponding [Mat]/[Vec]
   operations with identical floating-point operation order, so switching a
   call site from the allocating kernel to the workspace kernel is
   bit-exact. *)

type t = {
  vecs : (string, float array) Hashtbl.t;
  mats : (string, Mat.t) Hashtbl.t;
}

let create () = { vecs = Hashtbl.create 16; mats = Hashtbl.create 16 }

let vec t name n =
  match Hashtbl.find_opt t.vecs name with
  | Some v when Array.length v = n -> v
  | _ ->
      let v = Array.make n 0. in
      Hashtbl.replace t.vecs name v;
      v

let zero_vec t name n =
  let v = vec t name n in
  Array.fill v 0 n 0.;
  v

let mat t name rows cols =
  match Hashtbl.find_opt t.mats name with
  | Some m when Mat.dims m = (rows, cols) -> m
  | _ ->
      let m = Mat.create rows cols in
      Hashtbl.replace t.mats name m;
      m

let zero_mat t name rows cols =
  let m = mat t name rows cols in
  Mat.fill m 0.;
  m

(* u <- X z and v <- Xᵀ z for the row-major n x n array x, in one pass
   over x: u in the operation order of [Mat.mulv], v in that of
   [Mat.mulv_t], which skips the rows where z is zero. Two rows with nonzero
   z go in one step: their two sums of u run side by side, and v[j] adds
   row i before row i + 1. Any other row goes alone. *)
let mulv_pair x z u v =
  let n = Array.length z in
  if Array.length x <> n * n then invalid_arg "Workspace.mulv_pair: bad x";
  if Array.length u <> n || Array.length v <> n then
    invalid_arg "Workspace.mulv_pair: bad u or v";
  Array.fill v 0 n 0.;
  let i = ref 0 in
  while !i < n do
    let b0 = !i * n in
    let z0 = Array.unsafe_get z !i in
    if !i + 1 < n && z0 <> 0. && Array.unsafe_get z (!i + 1) <> 0. then begin
      let b1 = b0 + n in
      let z1 = Array.unsafe_get z (!i + 1) in
      let a0 = ref 0. and a1 = ref 0. in
      for j = 0 to n - 1 do
        let x0 = Array.unsafe_get x (b0 + j) in
        let x1 = Array.unsafe_get x (b1 + j) in
        let zj = Array.unsafe_get z j in
        a0 := !a0 +. (x0 *. zj);
        a1 := !a1 +. (x1 *. zj);
        Array.unsafe_set v j (Array.unsafe_get v j +. (x0 *. z0) +. (x1 *. z1))
      done;
      Array.unsafe_set u !i !a0;
      Array.unsafe_set u (!i + 1) !a1;
      i := !i + 2
    end
    else begin
      let acc = ref 0. in
      if z0 <> 0. then
        for j = 0 to n - 1 do
          let xij = Array.unsafe_get x (b0 + j) in
          acc := !acc +. (xij *. Array.unsafe_get z j);
          Array.unsafe_set v j (Array.unsafe_get v j +. (xij *. z0))
        done
      else
        for j = 0 to n - 1 do
          acc := !acc +. (Array.unsafe_get x (b0 + j) *. Array.unsafe_get z j)
        done;
      Array.unsafe_set u !i !acc;
      incr i
    end
  done

(* a <- a + alpha x xᵀ, both triangles (a stays symmetric). *)
let syr ~alpha x a =
  let rows, cols = Mat.dims a in
  if rows <> cols then invalid_arg "Workspace.syr: matrix not square";
  if Array.length x <> rows then invalid_arg "Workspace.syr: bad x";
  let ad = a.Mat.data in
  for i = 0 to rows - 1 do
    let base = i * rows in
    let axi = alpha *. Array.unsafe_get x i in
    if axi <> 0. then
      for j = 0 to rows - 1 do
        Array.unsafe_set ad (base + j)
          (Array.unsafe_get ad (base + j) +. (axi *. Array.unsafe_get x j))
      done
  done

