(** Dense row-major matrices of floats. *)

type t = private {
  rows : int;
  cols : int;
  data : float array;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> t
(** [create m n] is the [m] x [n] zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init m n f] has entry [f i j] at row [i], column [j]. *)

val of_arrays : float array array -> t
(** Build from an array of equal-length rows. *)

val identity : int -> t

val dims : t -> int * int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val fill : t -> float -> unit
(** Set every entry to the given value (in place). *)

val update : t -> int -> int -> (float -> float) -> unit

val col : t -> int -> Vec.t
(** Copy of column [j]. *)

val transpose : t -> t

val add : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. *)

val mulv : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val mulv_t : t -> Vec.t -> Vec.t
(** [mulv_t a x] is [transpose a * x] without forming the transpose. *)

val gram : t -> t
(** [gram a] is [transpose a * a], exploiting symmetry. *)

val frobenius : t -> float

val approx_equal : ?tol:float -> t -> t -> bool

