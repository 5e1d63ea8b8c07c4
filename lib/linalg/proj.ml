let simplex ?(total = 1.) v =
  let n = Array.length v in
  if n = 0 then invalid_arg "Proj.simplex: empty vector";
  if total <= 0. then invalid_arg "Proj.simplex: total must be positive";
  let u = Array.copy v in
  Array.sort (fun a b -> compare b a) u;
  (* Find rho = max { k : u_k - (cumsum_k - total)/k > 0 } over the sorted
     order, then shift by theta and clamp. *)
  let cumsum = ref 0. in
  let theta = ref 0. in
  let rho = ref 0 in
  for k = 0 to n - 1 do
    cumsum := !cumsum +. u.(k);
    let t = (!cumsum -. total) /. float_of_int (k + 1) in
    if u.(k) -. t > 0. then begin
      rho := k + 1;
      theta := t
    end
  done;
  if !rho = 0 then begin
    (* all mass collapses: fall back to uniform (v far in the negative
       orthant with equal entries) *)
    Array.make n (total /. float_of_int n)
  end
  else Array.map (fun x -> Float.max 0. (x -. !theta)) v

let box ~lo ~hi x = Float.min hi (Float.max lo x)
