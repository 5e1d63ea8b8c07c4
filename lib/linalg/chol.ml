type t = { l : Mat.t }

let default_ridge = 1e-10

let factorize a =
  let n, cols = Mat.dims a in
  if n <> cols then invalid_arg "Chol.factorize: matrix not square";
  let l = Mat.create n n in
  let exception Bad of int in
  try
    for j = 0 to n - 1 do
      let acc = ref (Mat.get a j j) in
      for k = 0 to j - 1 do
        let ljk = Mat.get l j k in
        acc := !acc -. (ljk *. ljk)
      done;
      if !acc <= 0. then raise (Bad j);
      let ljj = sqrt !acc in
      Mat.set l j j ljj;
      for i = j + 1 to n - 1 do
        let acc = ref (Mat.get a i j) in
        for k = 0 to j - 1 do
          acc := !acc -. (Mat.get l i k *. Mat.get l j k)
        done;
        Mat.set l i j (!acc /. ljj)
      done
    done;
    Ok { l }
  with Bad j -> Error (`Not_positive_definite j)

(* In-place variant of [factorize] writing into a caller-owned factor buffer:
   no per-solve allocation, and the inner loops run on the flat data arrays.
   [shift] adds [shift * I] without materializing the shifted matrix. The
   arithmetic (operation order included) is identical to [factorize] on the
   shifted matrix, so the two paths produce bit-identical factors. *)
let factorize_into ?(shift = 0.) ~l a =
  let n, cols = Mat.dims a in
  if n <> cols then invalid_arg "Chol.factorize_into: matrix not square";
  if Mat.dims l <> (n, n) then
    invalid_arg "Chol.factorize_into: factor buffer has wrong dimensions";
  let ad = a.Mat.data and ld = l.Mat.data in
  let exception Bad of int in
  try
    for j = 0 to n - 1 do
      let jbase = j * n in
      let acc = ref (Array.unsafe_get ad (jbase + j) +. shift) in
      for k = 0 to j - 1 do
        let ljk = Array.unsafe_get ld (jbase + k) in
        acc := !acc -. (ljk *. ljk)
      done;
      if !acc <= 0. then raise (Bad j);
      let ljj = sqrt !acc in
      Array.unsafe_set ld (jbase + j) ljj;
      for i = j + 1 to n - 1 do
        let ibase = i * n in
        let acc = ref (Array.unsafe_get ad (ibase + j)) in
        for k = 0 to j - 1 do
          acc :=
            !acc
            -. (Array.unsafe_get ld (ibase + k)
                *. Array.unsafe_get ld (jbase + k))
        done;
        Array.unsafe_set ld (ibase + j) (!acc /. ljj)
      done
    done;
    Ok { l }
  with Bad j -> Error (`Not_positive_definite j)

let mean_diag_of a =
  let n, _ = Mat.dims a in
  if n = 0 then 1.
  else begin
    let s = ref 0. in
    for i = 0 to n - 1 do
      s := !s +. Float.abs (Mat.get a i i)
    done;
    let m = !s /. float_of_int n in
    if m > 0. then m else 1.
  end

let factorize_ridge ?(ridge = 1e-12) a =
  let n, _ = Mat.dims a in
  let mean_diag = mean_diag_of a in
  let rec attempt lambda =
    let shifted =
      Mat.init n n (fun i j ->
          if i = j then Mat.get a i j +. lambda else Mat.get a i j)
    in
    match factorize shifted with
    | Ok ch -> ch
    | Error (`Not_positive_definite _) ->
        if lambda > 1e6 *. mean_diag then
          invalid_arg "Chol.factorize_ridge: matrix is not positive definite"
        else attempt (Float.max (lambda *. 10.) (1e-12 *. mean_diag))
  in
  attempt (ridge *. mean_diag)

let factorize_ridge_into ?(ridge = 1e-12) ~l a =
  let mean_diag = mean_diag_of a in
  let rec attempt lambda =
    match factorize_into ~shift:lambda ~l a with
    | Ok ch -> ch
    | Error (`Not_positive_definite _) ->
        if lambda > 1e6 *. mean_diag then
          invalid_arg "Chol.factorize_ridge_into: matrix is not positive definite"
        else attempt (Float.max (lambda *. 10.) (1e-12 *. mean_diag))
  in
  attempt (ridge *. mean_diag)

(* --- transposed-factor solves ------------------------------------------ *)

(* The backward-substitution half of [solve_into] walks a column of [l]
   (stride-n reads: one cache line per element). Callers that keep a factor
   around across many solves — the tomogravity factor cache — store [lᵀ]
   once and hand it back in, turning the backward pass into stride-1 row
   walks. The multiply-add order is exactly [solve_into]'s (the same values
   are read, from a transposed layout), so results are bit-identical. *)
let transpose_into { l } ~lt =
  let n, _ = Mat.dims l in
  if Mat.dims lt <> (n, n) then
    invalid_arg "Chol.transpose_into: buffer has wrong dimensions";
  let ld = l.Mat.data and td = lt.Mat.data in
  for i = 0 to n - 1 do
    let ibase = i * n in
    for j = 0 to i do
      Array.unsafe_set td ((j * n) + i) (Array.unsafe_get ld (ibase + j))
    done
  done

(* L y = b in place. Row i subtracts l[i, j] y[j] for j = 0 .. i - 1 in
   order, then divides by l[i, i]. A block of four rows runs its four sums
   side by side over the prefix j < i0 they share, then finishes the
   triangle row by row; leftover rows go one at a time. Callers check that
   [ld] is n x n and [b] has length n. *)
let forward_sub ld n b =
  let i0 = ref 0 in
  while !i0 + 3 < n do
    let r0 = !i0 * n in
    let r1 = r0 + n in
    let r2 = r1 + n in
    let r3 = r2 + n in
    let a0 = ref (Array.unsafe_get b !i0)
    and a1 = ref (Array.unsafe_get b (!i0 + 1))
    and a2 = ref (Array.unsafe_get b (!i0 + 2))
    and a3 = ref (Array.unsafe_get b (!i0 + 3)) in
    for j = 0 to !i0 - 1 do
      let bj = Array.unsafe_get b j in
      a0 := !a0 -. (Array.unsafe_get ld (r0 + j) *. bj);
      a1 := !a1 -. (Array.unsafe_get ld (r1 + j) *. bj);
      a2 := !a2 -. (Array.unsafe_get ld (r2 + j) *. bj);
      a3 := !a3 -. (Array.unsafe_get ld (r3 + j) *. bj)
    done;
    let j = !i0 in
    let y0 = !a0 /. Array.unsafe_get ld (r0 + j) in
    let a1 = !a1 -. (Array.unsafe_get ld (r1 + j) *. y0) in
    let y1 = a1 /. Array.unsafe_get ld (r1 + j + 1) in
    let a2 = !a2 -. (Array.unsafe_get ld (r2 + j) *. y0) in
    let a2 = a2 -. (Array.unsafe_get ld (r2 + j + 1) *. y1) in
    let y2 = a2 /. Array.unsafe_get ld (r2 + j + 2) in
    let a3 = !a3 -. (Array.unsafe_get ld (r3 + j) *. y0) in
    let a3 = a3 -. (Array.unsafe_get ld (r3 + j + 1) *. y1) in
    let a3 = a3 -. (Array.unsafe_get ld (r3 + j + 2) *. y2) in
    let y3 = a3 /. Array.unsafe_get ld (r3 + j + 3) in
    Array.unsafe_set b j y0;
    Array.unsafe_set b (j + 1) y1;
    Array.unsafe_set b (j + 2) y2;
    Array.unsafe_set b (j + 3) y3;
    i0 := !i0 + 4
  done;
  for i = !i0 to n - 1 do
    let ibase = i * n in
    let acc = ref (Array.unsafe_get b i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Array.unsafe_get ld (ibase + j) *. Array.unsafe_get b j)
    done;
    Array.unsafe_set b i (!acc /. Array.unsafe_get ld (ibase + i))
  done

let solve_into { l } b =
  let n, _ = Mat.dims l in
  if Array.length b <> n then
    invalid_arg "Chol.solve_into: bad right-hand side";
  let ld = l.Mat.data in
  forward_sub ld n b;
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get b i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get ld ((j * n) + i) *. Array.unsafe_get b j)
    done;
    Array.unsafe_set b i (!acc /. Array.unsafe_get ld ((i * n) + i))
  done

let solve_into_t { l } ~lt b =
  let n, _ = Mat.dims l in
  if Array.length b <> n then
    invalid_arg "Chol.solve_into_t: bad right-hand side";
  if Mat.dims lt <> (n, n) then
    invalid_arg "Chol.solve_into_t: transposed factor has wrong dimensions";
  let td = lt.Mat.data in
  forward_sub l.Mat.data n b;
  (* Backward pass on rows of lᵀ: lt[i, j] = l[j, i], identical values in
     identical order to [solve_into]'s column walk. *)
  for i = n - 1 downto 0 do
    let ibase = i * n in
    let acc = ref (Array.unsafe_get b i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get td (ibase + j) *. Array.unsafe_get b j)
    done;
    Array.unsafe_set b i (!acc /. Array.unsafe_get td (ibase + i))
  done

let solve ch b =
  let y = Array.copy b in
  solve_into ch y;
  y

