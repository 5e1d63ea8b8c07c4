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
    seeded uniformly so IPF can converge.

    An iteration reads the matrix twice. The row pass scales each row by
    its target over its sum and adds the scaled entries into the column
    sums. The column pass scales each column the same way and adds up the
    row and column sums, which the convergence check and the next row pass
    read. Every sum is added from 0 in index order, as a pass per sum
    would add it.

    Raises [Invalid_argument] on dimension mismatch, on negative targets
    and on non-finite targets (NaN or infinite). *)
