type t = { n : int; data : float array }

let create n =
  if n <= 0 then invalid_arg "Tm.create: size must be positive";
  { n; data = Array.make (n * n) 0. }

let size t = t.n

let check_range t i j name =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg (Printf.sprintf "Tm.%s: (%d,%d) out of range for n=%d" name i j t.n)

let get t i j =
  check_range t i j "get";
  t.data.((i * t.n) + j)

let set t i j v =
  check_range t i j "set";
  if v < 0. then invalid_arg "Tm.set: negative traffic volume";
  t.data.((i * t.n) + j) <- v

let add_to t i j v =
  check_range t i j "add_to";
  let k = (i * t.n) + j in
  let updated = t.data.(k) +. v in
  if updated < 0. then invalid_arg "Tm.add_to: entry would become negative";
  t.data.(k) <- updated

let init n f =
  let t = create n in
  let d = t.data in
  for i = 0 to n - 1 do
    let base = i * n in
    for j = 0 to n - 1 do
      let v = f i j in
      if v < 0. then invalid_arg "Tm.init: negative traffic volume";
      Array.unsafe_set d (base + j) v
    done
  done;
  t

let copy t = { t with data = Array.copy t.data }

let total t = Ic_linalg.Vec.sum t.data

let to_vector t = Array.copy t.data

let of_vector_clamped n v =
  if Array.length v <> n * n then
    invalid_arg "Tm.of_vector_clamped: length does not match size";
  { n; data = Array.map (fun x -> if x < 0. then 0. else x) v }

let unsafe_data t = t.data

let scale s t =
  if s < 0. then invalid_arg "Tm.scale: negative factor";
  { t with data = Array.map (fun x -> s *. x) t.data }

let approx_equal ?tol a b =
  a.n = b.n && Ic_linalg.Vec.approx_equal ?tol a.data b.data

