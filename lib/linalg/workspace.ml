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
   [Mat.mulv_t], which skips the rows where z is zero. *)
let mulv_pair x z u v =
  let n = Array.length z in
  if Array.length x <> n * n then invalid_arg "Workspace.mulv_pair: bad x";
  if Array.length u <> n || Array.length v <> n then
    invalid_arg "Workspace.mulv_pair: bad u or v";
  Array.fill v 0 n 0.;
  for i = 0 to n - 1 do
    let base = i * n in
    let zi = Array.unsafe_get z i in
    let acc = ref 0. in
    if zi <> 0. then
      for j = 0 to n - 1 do
        let xij = Array.unsafe_get x (base + j) in
        acc := !acc +. (xij *. Array.unsafe_get z j);
        Array.unsafe_set v j (Array.unsafe_get v j +. (xij *. zi))
      done
    else
      for j = 0 to n - 1 do
        acc := !acc +. (Array.unsafe_get x (base + j) *. Array.unsafe_get z j)
      done;
    Array.unsafe_set u i !acc
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

let axpy = Vec.axpy
