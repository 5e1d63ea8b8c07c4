module Vec = Ic_linalg.Vec
module Tm = Ic_traffic.Tm

type outcome = {
  tm : Ic_traffic.Tm.t;
  iterations : int;
  max_marginal_error : float;
  converged : bool;
}

let fit ?(max_iter = 200) ?(tol = 1e-9) tm ~row_targets ~col_targets =
  let n = Tm.size tm in
  if Array.length row_targets <> n || Array.length col_targets <> n then
    invalid_arg "Ipf.fit: dimension mismatch";
  if
    Array.exists (fun x -> x < 0.) row_targets
    || Array.exists (fun x -> x < 0.) col_targets
  then invalid_arg "Ipf.fit: negative targets";
  let row_total = Vec.sum row_targets in
  let col_total = Vec.sum col_targets in
  (* Reconcile the two measurement totals onto the rows' total. *)
  let col_targets =
    if col_total > 0. then Vec.scale (row_total /. col_total) col_targets
    else col_targets
  in
  let x = Tm.copy tm in
  (* The scaling sweeps touch every entry several times per iteration; work
     on the backing array directly. Every value written is non-negative
     (seeds, and non-negative entries times non-negative scale factors). *)
  let xd = Tm.unsafe_data x in
  (* Seed rows/columns that must carry mass but currently have none. *)
  let seed = 1e-9 *. Float.max row_total 1. /. float_of_int (n * n) in
  for i = 0 to n - 1 do
    let base = i * n in
    let row_sum = ref 0. in
    for j = 0 to n - 1 do
      row_sum := !row_sum +. Array.unsafe_get xd (base + j)
    done;
    if row_targets.(i) > 0. && !row_sum <= 0. then
      for j = 0 to n - 1 do
        Array.unsafe_set xd (base + j) seed
      done
  done;
  for j = 0 to n - 1 do
    let col_sum = ref 0. in
    for i = 0 to n - 1 do
      col_sum := !col_sum +. Array.unsafe_get xd ((i * n) + j)
    done;
    if col_targets.(j) > 0. && !col_sum <= 0. then
      for i = 0 to n - 1 do
        let k = (i * n) + j in
        Array.unsafe_set xd k (Float.max (Array.unsafe_get xd k) seed)
      done
  done;
  let marginal_error () =
    let err = ref 0. in
    let scale = Float.max row_total 1e-12 in
    for i = 0 to n - 1 do
      let base = i * n in
      let row_sum = ref 0. in
      for j = 0 to n - 1 do
        row_sum := !row_sum +. Array.unsafe_get xd (base + j)
      done;
      err := Float.max !err (Float.abs (!row_sum -. row_targets.(i)) /. scale)
    done;
    for j = 0 to n - 1 do
      let col_sum = ref 0. in
      for i = 0 to n - 1 do
        col_sum := !col_sum +. Array.unsafe_get xd ((i * n) + j)
      done;
      err := Float.max !err (Float.abs (!col_sum -. col_targets.(j)) /. scale)
    done;
    !err
  in
  let iterations = ref 0 in
  (* [last_err] carries the most recent convergence-check value so the
     returned error needs no extra full sweep. *)
  let last_err = ref (marginal_error ()) in
  let continue_ = ref (!last_err > tol) in
  while !continue_ && !iterations < max_iter do
    incr iterations;
    (* row scaling *)
    for i = 0 to n - 1 do
      let base = i * n in
      let row_sum = ref 0. in
      for j = 0 to n - 1 do
        row_sum := !row_sum +. Array.unsafe_get xd (base + j)
      done;
      if !row_sum > 0. then begin
        let s = row_targets.(i) /. !row_sum in
        for j = 0 to n - 1 do
          Array.unsafe_set xd (base + j) (Array.unsafe_get xd (base + j) *. s)
        done
      end
    done;
    (* column scaling *)
    for j = 0 to n - 1 do
      let col_sum = ref 0. in
      for i = 0 to n - 1 do
        col_sum := !col_sum +. Array.unsafe_get xd ((i * n) + j)
      done;
      if col_sum.contents > 0. then begin
        let s = col_targets.(j) /. !col_sum in
        for i = 0 to n - 1 do
          let k = (i * n) + j in
          Array.unsafe_set xd k (Array.unsafe_get xd k *. s)
        done
      end
    done;
    last_err := marginal_error ();
    if !last_err <= tol then continue_ := false
  done;
  {
    tm = x;
    iterations = !iterations;
    max_marginal_error = !last_err;
    converged = !last_err <= tol;
  }
