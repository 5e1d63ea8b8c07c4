module Rng = Ic_prng.Rng
module Sampler = Ic_prng.Sampler

let feq_tol tol = Alcotest.(check (float tol))

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.bits64 a = Rng.bits64 b)

let test_fork () =
  let parent = Rng.create 7 in
  let child = Rng.fork parent in
  (* child stream differs from the parent's continued stream *)
  let c = Array.init 16 (fun _ -> Rng.bits64 child) in
  let p = Array.init 16 (fun _ -> Rng.bits64 parent) in
  Alcotest.(check bool) "decorrelated" true (c <> p)

let test_split_pure () =
  let base = Rng.create 7 in
  let before = Array.init 8 (fun _ -> Rng.bits64 (Rng.copy base)) in
  let a = Rng.split base 3 and b = Rng.split base 3 in
  Alcotest.(check bool) "same k, same stream" true
    (Array.init 32 (fun _ -> Rng.bits64 a)
    = Array.init 32 (fun _ -> Rng.bits64 b));
  (* the parent state is untouched by split *)
  let after = Array.init 8 (fun _ -> Rng.bits64 (Rng.copy base)) in
  Alcotest.(check bool) "parent unmodified" true (before = after)

let test_split_is_jump_ahead () =
  (* split g 0 = copy + one jump: 2^128 steps ahead of the parent. *)
  let g = Rng.create 99 in
  let child = Rng.split g 0 in
  let manual = Rng.copy g in
  Rng.jump manual;
  Alcotest.(check int64) "split 0 = jump" (Rng.bits64 manual)
    (Rng.bits64 child);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split: negative stream index") (fun () ->
      ignore (Rng.split g (-1)))

let test_split_no_collision () =
  (* Statistical smoke test: the first 10k draws of several split streams
     (and the parent) are pairwise distinct 64-bit values. Jump-ahead
     guarantees non-overlap; a collision would mean either a broken jump
     polynomial or a catastrophically non-uniform generator (expected
     collision probability over 50k draws is ~7e-11). *)
  let draws_per_stream = 10_000 in
  let base = Rng.create 2024 in
  let streams = Array.init 4 (fun k -> Rng.split base k) in
  let seen = Hashtbl.create (8 * draws_per_stream) in
  let collisions = ref 0 in
  let drain label g =
    for i = 1 to draws_per_stream do
      let v = Rng.bits64 g in
      (match Hashtbl.find_opt seen v with
      | Some (other, j) ->
          incr collisions;
          if !collisions = 1 then
            Printf.eprintf "collision: %s draw %d = %s draw %d\n" label i
              other j
      | None -> ());
      Hashtbl.replace seen v (label, i)
    done
  in
  drain "parent" base;
  Array.iteri (fun k g -> drain (Printf.sprintf "split-%d" k) g) streams;
  Alcotest.(check int) "no collisions in first 10k draws" 0 !collisions

let test_copy () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a)
    (Rng.bits64 b)

let test_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done;
  let mean = ref 0. in
  for _ = 1 to 10_000 do
    mean := !mean +. Rng.float rng
  done;
  feq_tol 0.02 "mean ~ 0.5" 0.5 (!mean /. 10_000.)

let test_int () =
  let rng = Rng.create 13 in
  let counts = Array.make 7 0 in
  for _ = 1 to 14_000 do
    let k = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 7);
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 1700 && c < 2300))
    counts;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let sample_stats n f =
  let xs = Array.init n (fun _ -> f ()) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
    /. float_of_int n
  in
  (mean, var, xs)

let test_normal () =
  let rng = Rng.create 17 in
  let mean, var, _ = sample_stats 20_000 (fun () -> Sampler.normal rng ~mu:3. ~sigma:2.) in
  feq_tol 0.08 "mean" 3. mean;
  feq_tol 0.2 "variance" 4. var

let test_exponential () =
  let rng = Rng.create 19 in
  let mean, _, xs = sample_stats 20_000 (fun () -> Sampler.exponential rng ~rate:2.) in
  feq_tol 0.02 "mean 1/rate" 0.5 mean;
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0.) xs)

let test_lognormal () =
  let rng = Rng.create 23 in
  let _, _, xs = sample_stats 20_000 (fun () -> Sampler.lognormal rng ~mu:1. ~sigma:0.5) in
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  (* median of lognormal is exp mu *)
  feq_tol 0.15 "median" (exp 1.) sorted.(10_000)

let test_pareto () =
  let rng = Rng.create 29 in
  let _, _, xs = sample_stats 20_000 (fun () -> Sampler.pareto rng ~alpha:2.5 ~x_min:3.) in
  Alcotest.(check bool) "above x_min" true (Array.for_all (fun x -> x >= 3.) xs);
  let mean = Array.fold_left ( +. ) 0. xs /. 20_000. in
  (* mean = alpha x_min / (alpha - 1) = 5 *)
  feq_tol 0.3 "mean" 5. mean

let test_poisson () =
  let rng = Rng.create 31 in
  let mean_small, var_small, _ =
    sample_stats 20_000 (fun () -> float_of_int (Sampler.poisson rng ~lambda:4.))
  in
  feq_tol 0.1 "small mean" 4. mean_small;
  feq_tol 0.3 "small variance" 4. var_small;
  let mean_large, _, _ =
    sample_stats 5_000 (fun () -> float_of_int (Sampler.poisson rng ~lambda:300.))
  in
  feq_tol 2. "large mean (normal approx)" 300. mean_large;
  Alcotest.(check int) "zero mean" 0 (Sampler.poisson rng ~lambda:0.)

let test_alias () =
  let rng = Rng.create 47 in
  let alias = Ic_prng.Alias.create [| 3.; 1.; 6. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let k = Ic_prng.Alias.draw alias rng in
    counts.(k) <- counts.(k) + 1
  done;
  feq_tol 0.02 "freq0" 0.3 (float_of_int counts.(0) /. 30_000.);
  feq_tol 0.02 "freq1" 0.1 (float_of_int counts.(1) /. 30_000.);
  feq_tol 0.02 "freq2" 0.6 (float_of_int counts.(2) /. 30_000.)

let test_alias_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty weights")
    (fun () -> ignore (Ic_prng.Alias.create [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Alias.create: all weights zero") (fun () ->
      ignore (Ic_prng.Alias.create [| 0.; 0. |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Alias.create: negative weight") (fun () ->
      ignore (Ic_prng.Alias.create [| 1.; -1. |]))

let alias_degenerate =
  QCheck.Test.make ~count:50 ~name:"alias draws valid indices for any weights"
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.001 10.))
    (fun ws ->
      let weights = Array.of_list ws in
      let alias = Ic_prng.Alias.create weights in
      let rng = Rng.create 53 in
      let ok = ref true in
      for _ = 1 to 200 do
        let k = Ic_prng.Alias.draw alias rng in
        if k < 0 || k >= Array.length weights then ok := false
      done;
      !ok)

let () =
  Alcotest.run "ic_prng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "fork" `Quick test_fork;
          Alcotest.test_case "split pure" `Quick test_split_pure;
          Alcotest.test_case "split = jump-ahead" `Quick
            test_split_is_jump_ahead;
          Alcotest.test_case "split streams don't collide" `Quick
            test_split_no_collision;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "float" `Quick test_float_range;
          Alcotest.test_case "int" `Quick test_int;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "normal" `Quick test_normal;
          Alcotest.test_case "exponential" `Quick test_exponential;
          Alcotest.test_case "lognormal" `Quick test_lognormal;
          Alcotest.test_case "pareto" `Quick test_pareto;
          Alcotest.test_case "poisson" `Quick test_poisson;
        ] );
      ( "alias",
        [
          Alcotest.test_case "frequencies" `Quick test_alias;
          Alcotest.test_case "errors" `Quick test_alias_errors;
          QCheck_alcotest.to_alcotest alias_degenerate;
        ] );
    ]
