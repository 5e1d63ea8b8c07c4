type t = {
  rows : int;
  cols : int;
  row_ptr : int array;  (* length rows+1 *)
  col_idx : int array;  (* length nnz, sorted within each row *)
  values : float array;  (* length nnz *)
}

let rows t = t.rows

let cols t = t.cols

let nnz t = Array.length t.values

let of_triplets ~rows ~cols triplets =
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= rows || j < 0 || j >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.of_triplets: entry (%d,%d) out of %dx%d" i j
             rows cols))
    triplets;
  let sorted =
    List.sort
      (fun (i1, j1, _) (i2, j2, _) -> compare (i1, j1) (i2, j2))
      triplets
  in
  (* merge duplicates, drop zeros *)
  let merged = ref [] in
  List.iter
    (fun (i, j, v) ->
      match !merged with
      | (i', j', v') :: rest when i = i' && j = j' ->
          merged := (i, j, v +. v') :: rest
      | _ -> merged := (i, j, v) :: !merged)
    sorted;
  let entries = List.rev (List.filter (fun (_, _, v) -> v <> 0.) !merged) in
  let n = List.length entries in
  let row_ptr = Array.make (rows + 1) 0 in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0. in
  List.iteri
    (fun k (i, j, v) ->
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1;
      col_idx.(k) <- j;
      values.(k) <- v)
    entries;
  for i = 1 to rows do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  { rows; cols; row_ptr; col_idx; values }

let of_dense m =
  let r, c = Mat.dims m in
  let triplets = ref [] in
  for i = r - 1 downto 0 do
    for j = c - 1 downto 0 do
      let v = Mat.get m i j in
      if v <> 0. then triplets := (i, j, v) :: !triplets
    done
  done;
  of_triplets ~rows:r ~cols:c !triplets

let to_dense t =
  let m = Mat.create t.rows t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      Mat.set m i t.col_idx.(k) t.values.(k)
    done
  done;
  m

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Sparse.get: out of range";
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let found = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.col_idx.(mid) in
    if c = j then begin
      found := t.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Each row's sum runs in column order from 0. Two rows per step run their
   sums side by side over the shorter row's length, then the longer row
   finishes alone. [of_triplets] validated every stored index, and the
   dimension checks cover [x] and [y], so the loops read unchecked. *)
let mulv_into t x ~into:y =
  if Array.length x <> t.cols then invalid_arg "Sparse.mulv_into: bad vector";
  if Array.length y <> t.rows then invalid_arg "Sparse.mulv_into: bad output";
  let rp = t.row_ptr and ci = t.col_idx and vs = t.values in
  let i = ref 0 in
  while !i < t.rows do
    let lo0 = Array.unsafe_get rp !i in
    let lo1 = Array.unsafe_get rp (!i + 1) in
    (* a lone last row pairs with an empty one *)
    let hi1 = if !i + 1 < t.rows then Array.unsafe_get rp (!i + 2) else lo1 in
    let len = min (lo1 - lo0) (hi1 - lo1) in
    let a0 = ref 0. and a1 = ref 0. in
    for k = 0 to len - 1 do
      let k0 = lo0 + k and k1 = lo1 + k in
      let x0 = Array.unsafe_get x (Array.unsafe_get ci k0) in
      let x1 = Array.unsafe_get x (Array.unsafe_get ci k1) in
      a0 := !a0 +. (Array.unsafe_get vs k0 *. x0);
      a1 := !a1 +. (Array.unsafe_get vs k1 *. x1)
    done;
    for k = lo0 + len to lo1 - 1 do
      let xk = Array.unsafe_get x (Array.unsafe_get ci k) in
      a0 := !a0 +. (Array.unsafe_get vs k *. xk)
    done;
    for k = lo1 + len to hi1 - 1 do
      let xk = Array.unsafe_get x (Array.unsafe_get ci k) in
      a1 := !a1 +. (Array.unsafe_get vs k *. xk)
    done;
    Array.unsafe_set y !i !a0;
    if !i + 1 < t.rows then Array.unsafe_set y (!i + 1) !a1;
    i := !i + 2
  done

(* [mulv_into]'s loops over the first [rows] rows, each term scaling its
   entry of [x] as it is read. *)
let mulv_scaled t ~rows ~scale x =
  if Array.length x <> t.cols then invalid_arg "Sparse.mulv_scaled: bad vector";
  if rows < 0 || rows > t.rows then invalid_arg "Sparse.mulv_scaled: bad rows";
  let y = Array.make rows 0. in
  let rp = t.row_ptr and ci = t.col_idx and vs = t.values in
  let i = ref 0 in
  while !i < rows do
    let lo0 = Array.unsafe_get rp !i in
    let lo1 = Array.unsafe_get rp (!i + 1) in
    let hi1 = if !i + 1 < rows then Array.unsafe_get rp (!i + 2) else lo1 in
    let len = min (lo1 - lo0) (hi1 - lo1) in
    let a0 = ref 0. and a1 = ref 0. in
    for k = 0 to len - 1 do
      let k0 = lo0 + k and k1 = lo1 + k in
      let x0 = Array.unsafe_get x (Array.unsafe_get ci k0) *. scale in
      let x1 = Array.unsafe_get x (Array.unsafe_get ci k1) *. scale in
      a0 := !a0 +. (Array.unsafe_get vs k0 *. x0);
      a1 := !a1 +. (Array.unsafe_get vs k1 *. x1)
    done;
    for k = lo0 + len to lo1 - 1 do
      let xk = Array.unsafe_get x (Array.unsafe_get ci k) *. scale in
      a0 := !a0 +. (Array.unsafe_get vs k *. xk)
    done;
    for k = lo1 + len to hi1 - 1 do
      let xk = Array.unsafe_get x (Array.unsafe_get ci k) *. scale in
      a1 := !a1 +. (Array.unsafe_get vs k *. xk)
    done;
    Array.unsafe_set y !i !a0;
    if !i + 1 < rows then Array.unsafe_set y (!i + 1) !a1;
    i := !i + 2
  done;
  y

let mulv t x =
  if Array.length x <> t.cols then invalid_arg "Sparse.mulv: bad vector";
  let y = Array.make t.rows 0. in
  mulv_into t x ~into:y;
  y

let mulv_t_into t x ~into:y =
  if Array.length x <> t.rows then invalid_arg "Sparse.mulv_t_into: bad vector";
  if Array.length y <> t.cols then invalid_arg "Sparse.mulv_t_into: bad output";
  Array.fill y 0 (Array.length y) 0.;
  for i = 0 to t.rows - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        y.(t.col_idx.(k)) <- y.(t.col_idx.(k)) +. (t.values.(k) *. xi)
      done
  done

let mulv_t t x =
  if Array.length x <> t.rows then invalid_arg "Sparse.mulv_t: bad vector";
  let y = Array.make t.cols 0. in
  mulv_t_into t x ~into:y;
  y

let row_iter t i f =
  if i < 0 || i >= t.rows then invalid_arg "Sparse.row_iter: bad row";
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done

let transpose t =
  let triplets = ref [] in
  for i = t.rows - 1 downto 0 do
    for k = t.row_ptr.(i + 1) - 1 downto t.row_ptr.(i) do
      triplets := (t.col_idx.(k), i, t.values.(k)) :: !triplets
    done
  done;
  of_triplets ~rows:t.cols ~cols:t.rows !triplets
