(** Iterative proportional fitting — Step 3 of the TM-estimation blueprint in
    paper Section 6: rescale an estimated TM so its row and column sums match
    the measured ingress and egress counts while staying non-negative. *)

type outcome = {
  tm : Ic_traffic.Tm.t;
  iterations : int;
  max_marginal_error : float;
      (** largest relative row/column-sum mismatch at termination *)
  converged : bool;
      (** [max_marginal_error <= tol]; [false] when the iteration cap
          stopped the fit first, e.g. on targets the zero pattern of the
          matrix cannot meet *)
}

val fit :
  ?max_iter:int ->
  ?tol:float ->
  Ic_traffic.Tm.t ->
  row_targets:Ic_linalg.Vec.t ->
  col_targets:Ic_linalg.Vec.t ->
  outcome
(** [fit tm ~row_targets ~col_targets] alternates row and column scalings
    (default 200 iterations, relative tolerance 1e-9). The column targets
    are rescaled to the row-target total (measurements are never exactly
    consistent). Rows or columns with a positive target but no mass are
    seeded uniformly so IPF can converge. Raises [Invalid_argument] on
    dimension mismatch or negative targets. *)
