(** A traffic matrix: bytes flowing from each origin PoP to each destination
    PoP during one time bin. Entry [(i,j)] is the OD flow [X_ij] of the
    paper; the diagonal holds intra-PoP traffic. *)

type t

val create : int -> t
(** [create n] is the all-zero [n] x [n] TM. *)

val init : int -> (int -> int -> float) -> t
(** [init n f] has entry [f i j] at [(i, j)], called in row-major order.
    Entries must be non-negative; raises [Invalid_argument] otherwise. *)

val size : t -> int
(** Number of PoPs. *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit
(** Raises [Invalid_argument] on negative values. *)

val add_to : t -> int -> int -> float -> unit
(** Accumulate bytes into an entry. *)

val copy : t -> t

val total : t -> float
(** [X_**]: all traffic in the network. *)

val to_vector : t -> Ic_linalg.Vec.t
(** Row-major vectorization; entry [(i,j)] lands at [i*n + j], matching
    {!Ic_topology.Routing.od_index}. *)

val of_vector_clamped : int -> Ic_linalg.Vec.t -> t
(** The inverse of {!to_vector}, a copy with negative entries clamped to
    zero: a TM holds byte counts, and estimator outputs can carry tiny
    negative values from floating-point cancellation. Raises
    [Invalid_argument] when the length is not [n * n]. *)

val unsafe_data : t -> float array
(** The backing row-major array itself — not a copy. For read-mostly hot
    loops ({!to_vector} copies); writers must preserve non-negativity. *)

val scale : float -> t -> t
(** Raises on negative scale factors. *)

val approx_equal : ?tol:float -> t -> t -> bool

