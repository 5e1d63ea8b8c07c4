module Vec = Ic_linalg.Vec
module Mat = Ic_linalg.Mat

let feq = Alcotest.(check (float 1e-9))

let feq_tol tol = Alcotest.(check (float tol))

(* deterministic pseudo-random floats for test data *)
let rng = Ic_prng.Rng.create 12345

let random_vec n = Array.init n (fun _ -> Ic_prng.Rng.float_range rng (-5.) 5.)

let random_mat m n = Mat.init m n (fun _ _ -> Ic_prng.Rng.float_range rng (-2.) 2.)

let random_spd n =
  (* A = B Bt + n I is symmetric positive definite *)
  let b = random_mat n n in
  let g = Mat.gram (Mat.transpose b) in
  Mat.add g (Mat.scale (float_of_int n) (Mat.identity n))

(* --- Vec --- *)

let test_vec_dot () =
  feq "dot" 32. (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]);
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_nrm2 () =
  feq "pythagoras" 5. (Vec.nrm2 [| 3.; 4. |]);
  feq "zero" 0. (Vec.nrm2 [| 0.; 0. |]);
  (* scaling safety: huge magnitudes must not overflow *)
  let huge = Vec.nrm2 [| 3e200; 4e200 |] in
  feq_tol 1e190 "huge" 5e200 huge;
  feq "diff" 5. (Vec.nrm2_diff [| 4.; 6. |] [| 1.; 2. |])

let test_vec_misc () =
  feq "sum" 6. (Vec.sum [| 1.; 2.; 3. |]);
  feq "mean" 2. (Vec.mean [| 1.; 2.; 3. |]);
  feq "amax" 3. (Vec.amax [| -3.; 2. |]);
  Alcotest.(check int) "max_index" 1 (Vec.max_index [| 1.; 5.; 3. |]);
  Alcotest.(check bool)
    "clamp" true
    (Vec.approx_equal (Vec.clamp_nonneg [| -1.; 2. |]) [| 0.; 2. |]);
  let v = Vec.normalize_sum [| 1.; 3. |] in
  feq "normalize" 0.25 v.(0);
  let y = [| 1.; 1. |] in
  Vec.axpy 2. [| 1.; 2. |] y;
  feq "axpy" 3. y.(0);
  feq "axpy" 5. y.(1)

(* --- Mat --- *)

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  feq "c00" 19. (Mat.get c 0 0);
  feq "c11" 50. (Mat.get c 1 1);
  let x = [| 1.; 1. |] in
  let y = Mat.mulv a x in
  feq "mulv" 3. y.(0);
  let yt = Mat.mulv_t a x in
  feq "mulv_t" 4. yt.(0)

let test_mat_gram () =
  let a = random_mat 7 4 in
  let g = Mat.gram a in
  let g' = Mat.mul (Mat.transpose a) a in
  Alcotest.(check bool) "gram = AtA" true (Mat.approx_equal ~tol:1e-9 g g')

let test_mat_transpose () =
  let a = random_mat 3 5 in
  Alcotest.(check bool)
    "double transpose" true
    (Mat.approx_equal a (Mat.transpose (Mat.transpose a)))

(* --- Chol --- *)

let test_chol_solve () =
  let a = random_spd 8 in
  let x = random_vec 8 in
  let b = Mat.mulv a x in
  match Ic_linalg.Chol.factorize a with
  | Error _ -> Alcotest.fail "not SPD"
  | Ok ch ->
      let x' = Ic_linalg.Chol.solve ch b in
      Alcotest.(check bool) "roundtrip" true (Vec.approx_equal ~tol:1e-7 x x')

let test_chol_not_pd () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  match Ic_linalg.Chol.factorize a with
  | Error (`Not_positive_definite _) -> ()
  | Ok _ -> Alcotest.fail "expected not-PD"

let test_chol_ridge () =
  (* rank-deficient: ridge must still produce a usable factorization *)
  let a = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let ch = Ic_linalg.Chol.factorize_ridge ~ridge:1e-8 a in
  let x = Ic_linalg.Chol.solve ch [| 2.; 2. |] in
  feq_tol 1e-3 "consistent solve" 2. (x.(0) +. x.(1))

(* --- Nnls --- *)

let test_nnls_interior () =
  (* when the unconstrained solution is positive, NNLS matches it *)
  let a = Mat.add (random_mat 5 5) (Mat.scale 10. (Mat.identity 5)) in
  let x = Array.map Float.abs (random_vec 5) in
  let b = Mat.mulv a x in
  let x' = Ic_linalg.Nnls.solve a b in
  Alcotest.(check bool) "matches truth" true (Vec.approx_equal ~tol:1e-6 x x')

let test_nnls_active () =
  (* classic example where the unconstrained solution is negative *)
  let a = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1.001 |]; [| 1.; 0.999 |] |] in
  let b = [| 1.; -1.; 1. |] in
  let x = Ic_linalg.Nnls.solve a b in
  Alcotest.(check bool) "nonneg" true (Array.for_all (fun v -> v >= 0.) x);
  Alcotest.(check bool)
    "kkt" true
    (Ic_linalg.Nnls.kkt_violation a b x < 1e-6)

let nnls_property =
  QCheck.Test.make ~count:60 ~name:"nnls satisfies KKT on random problems"
    QCheck.(pair (list_of_size (Gen.return 12) (float_range (-3.) 3.))
              (list_of_size (Gen.return 20) (float_range (-3.) 3.)))
    (fun (xs, ys) ->
      let m = 5 and n = 4 in
      let vals = Array.of_list (xs @ ys) in
      let a = Mat.init m n (fun i j -> vals.((i * n + j) mod Array.length vals)) in
      let b = Array.init m (fun i -> vals.((i * 7 + 3) mod Array.length vals)) in
      let x = Ic_linalg.Nnls.solve a b in
      Array.for_all (fun v -> v >= 0.) x
      && Ic_linalg.Nnls.kkt_violation a b x < 1e-5)

(* Edge cases of [solve_gram]'s start. Each is also solved twice through
   one shared system, whose second answer reuses the passive-set factors of
   the first; all three must agree bitwise. *)
let solve_gram_both g c =
  let x = Ic_linalg.Nnls.solve_gram g c in
  let sys = Ic_linalg.Nnls.system g in
  for _ = 1 to 2 do
    Alcotest.(check (array (float 0.)))
      "system agrees" x
      (Ic_linalg.Nnls.solve_system sys c)
  done;
  x

let test_nnls_one_variable () =
  let g = Mat.of_arrays [| [| 4. |] |] in
  let x = solve_gram_both g [| 2. |] in
  feq "interior" 0.5 x.(0);
  let x = solve_gram_both g [| -2. |] in
  feq "bound" 0. x.(0)

let test_nnls_nonpositive_rhs () =
  (* With c <= 0 the answer is 0, even where the unconstrained solve of a
     correlated system has a positive entry to seed the start with. *)
  let g = Mat.of_arrays [| [| 1.; 0.9; 0. |]; [| 0.9; 1.; 0. |]; [| 0.; 0.; 2. |] |] in
  let c = [| -1.; -0.5; 0. |] in
  let z = Ic_linalg.Chol.solve (Ic_linalg.Nnls.full_factor g) c in
  Alcotest.(check bool) "start seeds something" true (z.(1) > 0.);
  Alcotest.(check (array (float 0.))) "zero" [| 0.; 0.; 0. |] (solve_gram_both g c)

let test_nnls_duplicate_columns () =
  (* Repeated design columns make the Gram singular, so every solve that
     holds both copies goes through the ridge search. *)
  let rng = Ic_prng.Rng.create 17 in
  let base = Mat.init 10 4 (fun _ _ -> Ic_prng.Rng.float_range rng (-1.) 1.) in
  let a = Mat.init 10 6 (fun i j -> Mat.get base i (if j >= 4 then j - 3 else j)) in
  let g = Mat.gram a in
  Alcotest.(check bool) "gram singular" true
    (Result.is_error (Ic_linalg.Chol.factorize g));
  List.iter
    (fun b ->
      let x = solve_gram_both g (Mat.mulv_t a b) in
      Alcotest.(check bool) "nonneg" true (Array.for_all (fun v -> v >= 0.) x);
      Alcotest.(check bool) "kkt" true (Ic_linalg.Nnls.kkt_violation a b x < 1e-8))
    [
      Mat.mulv a [| 1.; 2.; 3.; 1.; 2.; 3. |];
      Array.init 10 (fun _ -> Ic_prng.Rng.float_range rng (-1.) 2.);
    ]

(* --- Cg --- *)

let test_cg_matches_chol () =
  let a = random_spd 10 in
  let b = random_vec 10 in
  let x_cg, stats = Ic_linalg.Cg.solve (fun v -> Mat.mulv a v) b in
  (match Ic_linalg.Chol.factorize a with
  | Ok ch ->
      let x_ch = Ic_linalg.Chol.solve ch b in
      Alcotest.(check bool)
        "cg = chol" true
        (Vec.approx_equal ~tol:1e-6 x_cg x_ch)
  | Error _ -> Alcotest.fail "SPD expected");
  Alcotest.(check bool) "converged" true (stats.residual < 1e-8)

let test_cg_zero_rhs () =
  let x, stats = Ic_linalg.Cg.solve (fun v -> v) (Vec.create 4) in
  Alcotest.(check bool) "zero" true (Vec.approx_equal x (Vec.create 4));
  Alcotest.(check int) "no iterations" 0 stats.iterations

(* --- Sparse --- *)

let test_sparse_roundtrip () =
  let d = random_mat 6 9 in
  let s = Ic_linalg.Sparse.of_dense d in
  Alcotest.(check bool)
    "roundtrip" true
    (Mat.approx_equal d (Ic_linalg.Sparse.to_dense s))

let test_sparse_mulv () =
  let d = random_mat 5 7 in
  let s = Ic_linalg.Sparse.of_dense d in
  let x = random_vec 7 in
  Alcotest.(check bool)
    "mulv" true
    (Vec.approx_equal ~tol:1e-10 (Mat.mulv d x) (Ic_linalg.Sparse.mulv s x));
  let y = random_vec 5 in
  Alcotest.(check bool)
    "mulv_t" true
    (Vec.approx_equal ~tol:1e-10 (Mat.mulv_t d y)
       (Ic_linalg.Sparse.mulv_t s y))

let test_sparse_triplets () =
  let s =
    Ic_linalg.Sparse.of_triplets ~rows:2 ~cols:2
      [ (0, 0, 1.); (0, 0, 2.); (1, 1, 0.); (1, 0, 4.) ]
  in
  Alcotest.(check int) "nnz (dup merged, zero dropped)" 2 (Ic_linalg.Sparse.nnz s);
  feq "merged" 3. (Ic_linalg.Sparse.get s 0 0);
  feq "zero entry" 0. (Ic_linalg.Sparse.get s 1 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sparse.of_triplets: entry (2,0) out of 2x2") (fun () ->
      ignore (Ic_linalg.Sparse.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.) ]))

let test_sparse_transpose () =
  let d = random_mat 4 6 in
  let s = Ic_linalg.Sparse.of_dense d in
  Alcotest.(check bool)
    "transpose" true
    (Mat.approx_equal (Mat.transpose d)
       (Ic_linalg.Sparse.to_dense (Ic_linalg.Sparse.transpose s)))

(* --- Eig --- *)

let test_eig_known () =
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let e = Ic_linalg.Eig.decompose a in
  feq_tol 1e-10 "lambda1" 3. e.eigenvalues.(0);
  feq_tol 1e-10 "lambda2" 1. e.eigenvalues.(1)

let test_eig_reconstruct () =
  let a = random_spd 9 in
  let e = Ic_linalg.Eig.decompose a in
  Alcotest.(check bool)
    "V L Vt = A" true
    (Mat.approx_equal ~tol:1e-7 a (Ic_linalg.Eig.reconstruct e));
  Alcotest.(check bool)
    "orthonormal eigenvectors" true
    (Mat.approx_equal ~tol:1e-8 (Mat.gram e.eigenvectors) (Mat.identity 9));
  (* SPD: all eigenvalues positive and sorted *)
  let l = e.eigenvalues in
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0.) l);
  for k = 0 to 7 do
    Alcotest.(check bool) "sorted" true (l.(k) >= l.(k + 1))
  done

let test_eig_eigenvector_property () =
  let a = random_spd 6 in
  let e = Ic_linalg.Eig.decompose a in
  (* A v = lambda v for the leading pair *)
  let v = Mat.col e.eigenvectors 0 in
  let av = Mat.mulv a v in
  let lv = Vec.scale e.eigenvalues.(0) v in
  Alcotest.(check bool) "A v = lambda v" true (Vec.approx_equal ~tol:1e-7 av lv)

let test_eig_not_square () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Eig.decompose: matrix not square") (fun () ->
      ignore (Ic_linalg.Eig.decompose (Mat.create 2 3)))

(* --- Proj --- *)

let test_simplex_basic () =
  let p = Ic_linalg.Proj.simplex [| 0.5; 0.5 |] in
  feq "already on simplex" 0.5 p.(0);
  let p = Ic_linalg.Proj.simplex [| 2.; 0. |] in
  feq "projects to vertex" 1. p.(0);
  feq "projects to vertex" 0. p.(1)

let simplex_property =
  QCheck.Test.make ~count:100 ~name:"simplex projection is feasible and optimal"
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range (-4.) 4.))
    (fun xs ->
      let v = Array.of_list xs in
      let p = Ic_linalg.Proj.simplex v in
      let feasible =
        Array.for_all (fun x -> x >= -1e-12) p
        && Float.abs (Vec.sum p -. 1.) < 1e-9
      in
      (* optimality: no closer point among a few random feasible points *)
      let dist a = Vec.nrm2_diff v a in
      let uniform = Array.make (Array.length v) (1. /. float_of_int (Array.length v)) in
      let vertex k =
        Array.init (Array.length v) (fun i -> if i = k then 1. else 0.)
      in
      let candidates = uniform :: List.init (Array.length v) vertex in
      feasible
      && List.for_all (fun c -> dist p <= dist c +. 1e-9) candidates)

let test_box () =
  feq "clamps low" 0. (Ic_linalg.Proj.box ~lo:0. ~hi:1. (-3.));
  feq "clamps high" 1. (Ic_linalg.Proj.box ~lo:0. ~hi:1. 3.);
  feq "interior" 0.4 (Ic_linalg.Proj.box ~lo:0. ~hi:1. 0.4)

let () =
  Alcotest.run "ic_linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "nrm2" `Quick test_vec_nrm2;
          Alcotest.test_case "misc" `Quick test_vec_misc;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mat_mul;
          Alcotest.test_case "gram" `Quick test_mat_gram;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
        ] );
      ( "chol",
        [
          Alcotest.test_case "solve" `Quick test_chol_solve;
          Alcotest.test_case "not PD" `Quick test_chol_not_pd;
          Alcotest.test_case "ridge" `Quick test_chol_ridge;
        ] );
      ( "nnls",
        [
          Alcotest.test_case "interior" `Quick test_nnls_interior;
          Alcotest.test_case "active constraints" `Quick test_nnls_active;
          QCheck_alcotest.to_alcotest nnls_property;
          Alcotest.test_case "one variable" `Quick test_nnls_one_variable;
          Alcotest.test_case "non-positive rhs" `Quick test_nnls_nonpositive_rhs;
          Alcotest.test_case "duplicate columns" `Quick
            test_nnls_duplicate_columns;
        ] );
      ( "cg",
        [
          Alcotest.test_case "matches cholesky" `Quick test_cg_matches_chol;
          Alcotest.test_case "zero rhs" `Quick test_cg_zero_rhs;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "dense roundtrip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "mulv" `Quick test_sparse_mulv;
          Alcotest.test_case "triplets" `Quick test_sparse_triplets;
          Alcotest.test_case "transpose" `Quick test_sparse_transpose;
        ] );
      ( "eig",
        [
          Alcotest.test_case "known values" `Quick test_eig_known;
          Alcotest.test_case "reconstruction" `Quick test_eig_reconstruct;
          Alcotest.test_case "eigenvector property" `Quick
            test_eig_eigenvector_property;
          Alcotest.test_case "not square" `Quick test_eig_not_square;
        ] );
      ( "proj",
        [
          Alcotest.test_case "simplex basic" `Quick test_simplex_basic;
          QCheck_alcotest.to_alcotest simplex_property;
          Alcotest.test_case "box" `Quick test_box;
        ] );
    ]
