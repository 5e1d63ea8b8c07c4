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
  if
    not
      (Array.for_all Float.is_finite row_targets
      && Array.for_all Float.is_finite col_targets)
  then invalid_arg "Ipf.fit: non-finite targets";
  let row_total = Vec.sum row_targets in
  let col_total = Vec.sum col_targets in
  (* Reconcile the two measurement totals onto the rows' total. *)
  let col_targets =
    if col_total > 0. then Vec.scale (row_total /. col_total) col_targets
    else col_targets
  in
  let x = Tm.copy tm in
  (* The passes below work on the backing array directly. Every value
     written is non-negative (seeds, and non-negative entries times
     non-negative scale factors). *)
  let xd = Tm.unsafe_data x in
  (* [rs] and [cs] hold the row and column sums of [xd] as it stands, each
     added from 0 in index order, the order the textbook loop adds them in;
     [sc] holds the column pass's scale factors. One pass produces the sums
     the next one needs, so an iteration reads the matrix twice: the row
     pass, then the column pass, whose sums also serve the convergence
     check. *)
  let rs = Array.make n 0. and cs = Array.make n 0. and sc = Array.make n 1. in
  (* Scale column j by [sc.(j)] and recompute [rs] and [cs]. Two rows per
     step run two row sums side by side; [cs.(j)] still adds row i before
     row i + 1. *)
  let col_pass () =
    Array.fill cs 0 n 0.;
    let i = ref 0 in
    while !i + 1 < n do
      let b0 = !i * n in
      let b1 = b0 + n in
      let r0 = ref 0. and r1 = ref 0. in
      for j = 0 to n - 1 do
        let s = Array.unsafe_get sc j in
        let v0 = Array.unsafe_get xd (b0 + j) *. s in
        let v1 = Array.unsafe_get xd (b1 + j) *. s in
        Array.unsafe_set xd (b0 + j) v0;
        Array.unsafe_set xd (b1 + j) v1;
        r0 := !r0 +. v0;
        r1 := !r1 +. v1;
        Array.unsafe_set cs j (Array.unsafe_get cs j +. v0 +. v1)
      done;
      Array.unsafe_set rs !i !r0;
      Array.unsafe_set rs (!i + 1) !r1;
      i := !i + 2
    done;
    if !i < n then begin
      let b0 = !i * n in
      let r0 = ref 0. in
      for j = 0 to n - 1 do
        let v0 = Array.unsafe_get xd (b0 + j) *. Array.unsafe_get sc j in
        Array.unsafe_set xd (b0 + j) v0;
        r0 := !r0 +. v0;
        Array.unsafe_set cs j (Array.unsafe_get cs j +. v0)
      done;
      Array.unsafe_set rs !i !r0
    end
  in
  (* Scale each row with a positive sum onto its target and recompute [cs]
     from the scaled entries, rows in order. Scaling by 1 (here and in
     [col_pass]) leaves an entry's bits as they are. *)
  let row_pass () =
    Array.fill cs 0 n 0.;
    for i = 0 to n - 1 do
      let b = i * n in
      let r = Array.unsafe_get rs i in
      let s = if r > 0. then Array.unsafe_get row_targets i /. r else 1. in
      for j = 0 to n - 1 do
        let v = Array.unsafe_get xd (b + j) *. s in
        Array.unsafe_set xd (b + j) v;
        Array.unsafe_set cs j (Array.unsafe_get cs j +. v)
      done
    done
  in
  (* Seed rows/columns that must carry mass but currently have none. With
     [sc] all ones, [col_pass] only computes the sums; it reruns only after
     a seed was placed. *)
  let seed = 1e-9 *. Float.max row_total 1. /. float_of_int (n * n) in
  col_pass ();
  let seeded = ref false in
  for i = 0 to n - 1 do
    if row_targets.(i) > 0. && rs.(i) <= 0. then begin
      Array.fill xd (i * n) n seed;
      seeded := true
    end
  done;
  if !seeded then col_pass ();
  seeded := false;
  for j = 0 to n - 1 do
    if col_targets.(j) > 0. && cs.(j) <= 0. then begin
      for i = 0 to n - 1 do
        let k = (i * n) + j in
        Array.unsafe_set xd k (Float.max (Array.unsafe_get xd k) seed)
      done;
      seeded := true
    end
  done;
  if !seeded then col_pass ();
  let scale = Float.max row_total 1e-12 in
  let marginal_error () =
    let err = ref 0. in
    for i = 0 to n - 1 do
      err := Float.max !err (Float.abs (rs.(i) -. row_targets.(i)) /. scale)
    done;
    for j = 0 to n - 1 do
      err := Float.max !err (Float.abs (cs.(j) -. col_targets.(j)) /. scale)
    done;
    !err
  in
  let iterations = ref 0 in
  let last_err = ref (marginal_error ()) in
  let continue_ = ref (!last_err > tol) in
  while !continue_ && !iterations < max_iter do
    incr iterations;
    row_pass ();
    for j = 0 to n - 1 do
      let c = cs.(j) in
      sc.(j) <- (if c > 0. then col_targets.(j) /. c else 1.)
    done;
    col_pass ();
    last_err := marginal_error ();
    if !last_err <= tol then continue_ := false
  done;
  {
    tm = x;
    iterations = !iterations;
    max_marginal_error = !last_err;
    converged = !last_err <= tol;
  }
