type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0. }

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length a.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then
          invalid_arg "Mat.of_arrays: ragged rows")
      a;
    init rows cols (fun i j -> a.(i).(j))
  end

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let fill m x = Array.fill m.data 0 (Array.length m.data) x

let update m i j f =
  let k = (i * m.cols) + j in
  m.data.(k) <- f m.data.(k)

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let dims m = (m.rows, m.cols)

let col m j = Array.init m.rows (fun i -> get m i j)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let add a b =
  check_same_dims "add" a b;
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let scale s a = { a with data = Array.map (fun x -> s *. x) a.data }

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.mul: dimension mismatch (%dx%d times %dx%d)" a.rows
         a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. get b k j)
        done
    done
  done;
  c

let mulv a x =
  if a.cols <> Array.length x then
    invalid_arg
      (Printf.sprintf "Mat.mulv: %dx%d matrix, %d vector" a.rows a.cols
         (Array.length x));
  let y = Array.make a.rows 0. in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let acc = ref 0. in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (a.data.(base + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

let mulv_t a x =
  if a.rows <> Array.length x then
    invalid_arg
      (Printf.sprintf "Mat.mulv_t: %dx%d matrix, %d vector" a.rows a.cols
         (Array.length x));
  let y = Array.make a.cols 0. in
  for i = 0 to a.rows - 1 do
    let xi = x.(i) in
    if xi <> 0. then begin
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (a.data.(base + j) *. xi)
      done
    end
  done;
  y

let gram a =
  let n = a.cols in
  let g = create n n in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    for j = 0 to n - 1 do
      let aij = a.data.(base + j) in
      if aij <> 0. then
        for k = j to n - 1 do
          g.data.((j * n) + k) <- g.data.((j * n) + k) +. (aij *. a.data.(base + k))
        done
    done
  done;
  for j = 0 to n - 1 do
    for k = 0 to j - 1 do
      g.data.((j * n) + k) <- g.data.((k * n) + j)
    done
  done;
  g

let frobenius m = Vec.nrm2 m.data

let approx_equal ?tol a b =
  a.rows = b.rows && a.cols = b.cols
  && Vec.approx_equal ?tol a.data b.data

