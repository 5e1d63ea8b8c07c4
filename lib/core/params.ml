type stable_fp = {
  f : float;
  preference : Ic_linalg.Vec.t;
  activity : Ic_linalg.Vec.t array;
}

type stable_f = {
  f : float;
  preference : Ic_linalg.Vec.t array;
  activity : Ic_linalg.Vec.t array;
}

type time_varying = {
  f : float array;
  preference : Ic_linalg.Vec.t array;
  activity : Ic_linalg.Vec.t array;
}

type general = {
  f_matrix : Ic_linalg.Mat.t;
  preference : Ic_linalg.Vec.t;
  activity : Ic_linalg.Vec.t;
}

let nodes (p : stable_fp) = Array.length p.preference

let dof_gravity ~n ~t = (2 * n * t) - 1

let dof_time_varying ~n ~t = 3 * n * t

let dof_stable_f ~n ~t = (2 * n * t) + 1

let dof_stable_fp ~n ~t = (n * t) + n + 1
