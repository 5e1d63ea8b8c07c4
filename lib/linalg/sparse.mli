(** Immutable sparse matrices in compressed-sparse-row form.

    Routing matrices are extremely sparse (each OD pair crosses a handful of
    links), so the estimation pipeline stores them in CSR and never
    densifies. *)

type t

val rows : t -> int

val cols : t -> int

val nnz : t -> int

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Duplicate coordinates are summed; explicit zeros are dropped. Raises
    [Invalid_argument] on out-of-range coordinates. *)

val of_dense : Mat.t -> t

val to_dense : t -> Mat.t

val get : t -> int -> int -> float
(** Logarithmic in the row's population. *)

val mulv : t -> Vec.t -> Vec.t
(** Sparse matrix-vector product. *)

val mulv_t : t -> Vec.t -> Vec.t
(** [mulv_t a x] is [aᵀ x]. *)

val mulv_into : t -> Vec.t -> into:Vec.t -> unit
(** [mulv_into a x ~into] writes [a x] into the caller-owned buffer [into]
    (length [rows a]) without allocating. Each row's sum adds its stored
    entries in column order; two rows per step run their sums side by
    side. Bit-identical to {!mulv}. *)

val mulv_scaled : t -> rows:int -> scale:float -> Vec.t -> Vec.t
(** [mulv_scaled a ~rows ~scale x] is the first [rows] entries of
    [a (scale x)], with [scale x] never formed: each row's sum runs from 0
    in column order over the terms [v *. (x_j *. scale)], so it is bit for
    bit the first [rows] entries of {!mulv} on the scaled copy. Raises
    [Invalid_argument] unless [0 <= rows <= rows a] and [x] has [cols a]
    entries. *)

val mulv_t_into : t -> Vec.t -> into:Vec.t -> unit
(** [mulv_t_into a x ~into] writes [aᵀ x] into [into] (length [cols a],
    zeroed first) without allocating. Bit-identical to {!mulv_t}. *)

val row_iter : t -> int -> (int -> float -> unit) -> unit
(** Iterate over the stored entries of one row. *)

val transpose : t -> t
