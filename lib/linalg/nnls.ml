(* Lawson & Hanson (1974) active-set NNLS, run on the normal equations.
   For the problem sizes in this library (tens of variables) the normal
   equations are well within double-precision comfort, and accumulating the
   Gram matrix is much cheaper than factoring the tall design matrix. *)

(* The ridged factor of [g] restricted to the passive index set. *)
let passive_factor g passive =
  let np = Array.length passive in
  let gp = Mat.init np np (fun i j -> Mat.get g passive.(i) passive.(j)) in
  Chol.factorize_ridge ~ridge:1e-12 gp

(* [passive_factor] on the full set copies [g] verbatim before this same
   factorization, so solves with this factor are bit-identical to it. *)
let full_factor g = Chol.factorize_ridge ~ridge:1e-12 g

type system = {
  g : Mat.t;
  factor : Chol.t;
  passive_factors : (string, Chol.t) Hashtbl.t;
      (* [passive_factor g] by exact passive set, keyed by its membership
         mask ('1' = passive). A right-hand side that leaves the interior
         usually drops the same few coordinates as an earlier one on the
         same Gram, so most fallbacks find their factor here. *)
}

let system ?factor g =
  let factor = match factor with Some ch -> ch | None -> full_factor g in
  { g; factor; passive_factors = Hashtbl.create 8 }

(* The unconstrained LS restricted to the passive index set, with that
   set's factor from the memo. *)
let solve_passive_ls sys c in_passive passive =
  let key =
    String.init (Array.length c) (fun i -> if in_passive.(i) then '1' else '0')
  in
  let ch =
    match Hashtbl.find_opt sys.passive_factors key with
    | Some ch -> ch
    | None ->
        let ch = passive_factor sys.g passive in
        Hashtbl.add sys.passive_factors key ch;
        ch
  in
  Chol.solve ch (Array.map (fun i -> c.(i)) passive)

(* Lawson–Hanson from the passive set [in_passive] (updated in place). It
   first restores primal feasibility on that set: [x] starts at 0, which
   is feasible, so the first pass only drops the coordinates whose
   restricted solve goes non-positive. The outer loop then adds the
   most-violating coordinate and restores feasibility again, until no
   coordinate violates dual feasibility. An empty set is the textbook cold
   start. [max_iter] caps the outer loop and each feasibility pass
   separately. *)
let lawson_hanson ?max_iter ~tol sys c in_passive =
  let g = sys.g in
  let n = Array.length c in
  let max_iter = match max_iter with Some k -> k | None -> 3 * n + 10 in
  let x = Array.make n 0. in
  let scale =
    let m = Vec.amax c in
    if m > 0. then m else 1.
  in
  let dual () =
    (* w = c - G x *)
    let gx = Mat.mulv g x in
    Array.init n (fun i -> c.(i) -. gx.(i))
  in
  let passive_indices () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if in_passive.(i) then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  (* inner loop: restore primal feasibility on the passive set *)
  let restore () =
    let feasible = ref false in
    let inner = ref 0 in
    while (not !feasible) && !inner < max_iter do
      incr inner;
      let passive = passive_indices () in
      let z = solve_passive_ls sys c in_passive passive in
      let all_pos = ref true in
      Array.iteri (fun _ zi -> if zi <= 0. then all_pos := false) z;
      if !all_pos then begin
        Array.fill x 0 n 0.;
        Array.iteri (fun k i -> x.(i) <- z.(k)) passive;
        feasible := true
      end
      else begin
        (* step toward z until the first passive coordinate hits zero *)
        let alpha = ref infinity in
        Array.iteri
          (fun k i ->
            if z.(k) <= 0. then begin
              let denom = x.(i) -. z.(k) in
              if denom > 0. then begin
                let a = x.(i) /. denom in
                if a < !alpha then alpha := a
              end
              else if x.(i) = 0. then alpha := 0.
            end)
          passive;
        let alpha = if Float.is_finite !alpha then !alpha else 0. in
        Array.iteri
          (fun k i -> x.(i) <- x.(i) +. (alpha *. (z.(k) -. x.(i))))
          passive;
        Array.iteri
          (fun k i ->
            if z.(k) <= 0. && x.(i) <= tol *. scale then begin
              x.(i) <- 0.;
              in_passive.(i) <- false
            end)
          passive
      end
    done
  in
  restore ();
  let iter = ref 0 in
  let continue_outer = ref true in
  while !continue_outer && !iter < max_iter do
    incr iter;
    let w = dual () in
    (* most-violating inactive coordinate *)
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if (not in_passive.(i)) && w.(i) > tol *. scale then
        if !best < 0 || w.(i) > w.(!best) then best := i
    done;
    if !best < 0 then continue_outer := false
    else begin
      in_passive.(!best) <- true;
      restore ()
    end
  done;
  Vec.clamp_nonneg x

(* The start. One solve of the full normal system comes first: activity
   recovery lands on an all-positive solution almost every bin, and a
   strictly positive solve is the NNLS optimum. Otherwise Lawson–Hanson
   starts from that solve's positive support, as in Bro and de Jong's
   FNNLS (1997), instead of from an empty passive set. It returns the
   solve on its final passive set, the optimum's support, which both
   starts reach; from the solve's support it typically gets there in one
   outer iteration instead of one per positive coordinate. *)
let solve_system ?max_iter ?(tol = 1e-10) sys c =
  let z = Chol.solve sys.factor c in
  if Array.for_all (fun zi -> zi > 0.) z then z
  else lawson_hanson ?max_iter ~tol sys c (Array.map (fun zi -> zi > 0.) z)

let solve_gram ?max_iter ?tol g c = solve_system ?max_iter ?tol (system g) c

(* G = d I + b p pᵀ. With τ = p·x, the KKT conditions read
   x_k = max(0, c_k - b τ p_k) / d, so τ is the root of
   h(τ) = τ - Σ_k p_k max(0, c_k - b τ p_k) / d. For b, p >= 0, h is
   increasing and concave, piecewise linear, with one piece per set
   S(τ) = {k : c_k - b τ p_k > 0}; the root of the piece of S is
   Σ_S p_k c_k / (d + b Σ_S p_k²). The unconstrained solution
   (Sherman–Morrison) is the root of the piece of every coordinate, which
   lies below h, so it starts at or below the root. From there, Newton
   steps on h rise monotonically: each step jumps to the root of the
   current piece, and S only shrinks, so a step that keeps S's size keeps
   S and ends at the root, within n + 1 steps. The max keeps τ from
   falling by a rounding, which keeps S nested. *)
let solve_rank_one ~d ~b p c =
  let n = Array.length c in
  if Array.length p <> n then invalid_arg "Nnls.solve_rank_one: dimension mismatch";
  if not (d >= 0. && b >= 0.) then
    invalid_arg "Nnls.solve_rank_one: d and b must be non-negative";
  let x = Array.make n 0. in
  if d > 0. then begin
    let pc = ref 0. and pp = ref 0. in
    for k = 0 to n - 1 do
      let pk = p.(k) in
      if pk < 0. then invalid_arg "Nnls.solve_rank_one: negative p";
      pc := !pc +. (pk *. c.(k));
      pp := !pp +. (pk *. pk)
    done;
    let tau0 = !pc /. (d +. (b *. !pp)) in
    let bt = b *. tau0 in
    let feasible = ref true in
    for k = 0 to n - 1 do
      let v = (c.(k) -. (bt *. p.(k))) /. d in
      x.(k) <- v;
      if v < -1e-9 *. (1. +. Float.abs v) then feasible := false
    done;
    if !feasible then
      for k = 0 to n - 1 do
        if x.(k) < 0. then x.(k) <- 0.
      done
    else begin
      let tau = ref tau0 in
      let size = ref n and steps = ref 0 in
      let stop = ref false in
      while not !stop do
        let bt = b *. !tau in
        let pc = ref 0. and pp = ref 0. and m = ref 0 in
        for k = 0 to n - 1 do
          let pk = p.(k) in
          if c.(k) -. (bt *. pk) > 0. then begin
            pc := !pc +. (pk *. c.(k));
            pp := !pp +. (pk *. pk);
            incr m
          end
        done;
        incr steps;
        if !m = !size || !steps > n + 1 then stop := true
        else begin
          size := !m;
          tau := Float.max !tau (!pc /. (d +. (b *. !pp)))
        end
      done;
      let bt = b *. !tau in
      for k = 0 to n - 1 do
        x.(k) <- Float.max 0. ((c.(k) -. (bt *. p.(k))) /. d)
      done
    end
  end;
  x

let solve ?max_iter ?tol a b =
  let g = Mat.gram a in
  let c = Mat.mulv_t a b in
  solve_gram ?max_iter ?tol g c

let kkt_violation a b x =
  let r = Vec.sub b (Mat.mulv a x) in
  let w = Mat.mulv_t a r in
  let scale =
    let m = Float.max (Vec.amax w) (Vec.amax b) in
    if m > 0. then m else 1.
  in
  let viol = ref 0. in
  Array.iteri
    (fun i xi ->
      if xi < 0. then viol := Float.max !viol (-.xi);
      if xi > 0. then viol := Float.max !viol (Float.abs w.(i) /. scale)
      else viol := Float.max !viol (Float.max 0. (w.(i) /. scale)))
    x;
  !viol
