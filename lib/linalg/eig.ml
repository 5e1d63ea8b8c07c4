type t = { eigenvalues : Vec.t; eigenvectors : Mat.t }

let off_diagonal_norm a n =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = Mat.get a i j in
      acc := !acc +. (2. *. v *. v)
    done
  done;
  sqrt !acc

(* Jacobi sweeps stop once the off-diagonal norm falls below [tol] relative
   to the Frobenius norm, or after [max_sweeps]. *)
let max_sweeps = 50

let tol = 1e-12

let decompose input =
  let n, cols = Mat.dims input in
  if n <> cols then invalid_arg "Eig.decompose: matrix not square";
  (* symmetrize defensively *)
  let a =
    Mat.init n n (fun i j -> 0.5 *. (Mat.get input i j +. Mat.get input j i))
  in
  let v = Mat.identity n in
  let scale = Float.max (Mat.frobenius a) 1e-300 in
  let sweeps = ref 0 in
  while off_diagonal_norm a n > tol *. scale && !sweeps < max_sweeps do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Mat.get a p q in
        if apq <> 0. then begin
          let app = Mat.get a p p and aqq = Mat.get a q q in
          let theta = (aqq -. app) /. (2. *. apq) in
          let t =
            let s = if theta >= 0. then 1. else -1. in
            s /. (Float.abs theta +. sqrt (1. +. (theta *. theta)))
          in
          let c = 1. /. sqrt (1. +. (t *. t)) in
          let s = c *. t in
          (* A <- Jt A J on rows/columns p and q *)
          for k = 0 to n - 1 do
            let akp = Mat.get a k p and akq = Mat.get a k q in
            Mat.set a k p ((c *. akp) -. (s *. akq));
            Mat.set a k q ((s *. akp) +. (c *. akq))
          done;
          for k = 0 to n - 1 do
            let apk = Mat.get a p k and aqk = Mat.get a q k in
            Mat.set a p k ((c *. apk) -. (s *. aqk));
            Mat.set a q k ((s *. apk) +. (c *. aqk))
          done;
          for k = 0 to n - 1 do
            let vkp = Mat.get v k p and vkq = Mat.get v k q in
            Mat.set v k p ((c *. vkp) -. (s *. vkq));
            Mat.set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done;
  let eigenvalues = Array.init n (fun i -> Mat.get a i i) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun x y -> compare eigenvalues.(y) eigenvalues.(x)) order;
  {
    eigenvalues = Array.map (fun i -> eigenvalues.(i)) order;
    eigenvectors = Mat.init n n (fun i j -> Mat.get v i order.(j));
  }

let reconstruct { eigenvalues; eigenvectors } =
  let n, _ = Mat.dims eigenvectors in
  let scaled =
    Mat.init n n (fun i j -> Mat.get eigenvectors i j *. eigenvalues.(j))
  in
  Mat.mul scaled (Mat.transpose eigenvectors)
