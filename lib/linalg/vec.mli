(** Dense vectors of floats.

    A vector is a plain [float array]; this module provides the numerical
    kernels used throughout the library. All binary operations require equal
    lengths and raise [Invalid_argument] otherwise. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of length [n]. *)

val copy : t -> t

val dot : t -> t -> float
(** Inner product. *)

val nrm2 : t -> float
(** Euclidean norm, computed with scaling to avoid overflow. *)

val nrm2_diff : t -> t -> float
(** [nrm2_diff x y] is [nrm2 (sub x y)] without allocating. *)

val sum : t -> float

val mean : t -> float

val amax : t -> float
(** Largest absolute value; 0 for the empty vector. *)

val scale : float -> t -> t

val scale_inplace : float -> t -> unit

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t
(** Elementwise product. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] sets [y <- a*x + y]. *)

val map : (float -> float) -> t -> t

val max_index : t -> int
(** Index of the largest entry (first one on ties). Raises on empty input. *)

val clamp_nonneg : t -> t
(** Replace negative entries by [0.]. *)

val normalize_sum : t -> t
(** Scale so entries sum to 1. Raises [Invalid_argument] if the sum is not
    strictly positive. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Componentwise comparison with absolute tolerance [tol] (default 1e-9). *)

