(** Eigendecomposition of symmetric matrices by the cyclic Jacobi method. *)

type t = {
  eigenvalues : Vec.t;  (** sorted decreasing *)
  eigenvectors : Mat.t;  (** column [k] pairs with eigenvalue [k]; orthonormal *)
}

val decompose : Mat.t -> t
(** [decompose a] diagonalizes the symmetric matrix [a] (only the lower
    triangle is trusted; the matrix is symmetrized first). At most 50
    Jacobi sweeps run, stopping once the off-diagonal norm is below 1e-12
    of the Frobenius norm. Raises [Invalid_argument] on non-square
    input. *)

val reconstruct : t -> Mat.t
(** [V diag(lambda) Vᵀ] — for testing. *)
