(** Keyed pools of preallocated scratch buffers, plus the in-place kernels
    that use them.

    The estimation hot paths solve the same-shaped linear systems once per
    time bin. A workspace hoisted outside the bin loop keeps every scratch
    vector, Gram matrix and Cholesky factor buffer alive across bins, so the
    per-bin cost is arithmetic only — no allocation, no GC pressure.

    Buffers are addressed by name. Requesting a name with the size it
    already has returns the existing buffer (contents preserved); requesting
    a different size reallocates. The [zero_*] variants additionally clear
    the buffer, which is what accumulation kernels want.

    The in-place kernels mirror their allocating {!Mat}/{!Vec} counterparts
    with identical floating-point operation order, so replacing one with the
    other is bit-exact. *)

type t

val create : unit -> t
(** A fresh workspace with no buffers. *)

val vec : t -> string -> int -> float array
(** [vec t name n] is the length-[n] scratch vector registered under [name],
    allocating only if absent or of a different length. Contents are
    whatever the last user left (use {!zero_vec} for a cleared buffer). *)

val zero_vec : t -> string -> int -> float array
(** {!vec}, then fill with [0.]. *)

val mat : t -> string -> int -> int -> Mat.t
(** [mat t name rows cols] is the [rows]x[cols] scratch matrix registered
    under [name] (same reuse rule as {!vec}). *)

val zero_mat : t -> string -> int -> int -> Mat.t
(** {!mat}, then fill with [0.]. *)

val mulv_pair : float array -> Vec.t -> Vec.t -> Vec.t -> unit
(** [mulv_pair x z u v] sets [u <- X z] and [v <- Xᵀ z] for the row-major
    [n]x[n] array [x], [n = length z], in one pass over [x]. [u] is
    bit-identical to {!Mat.mulv} and [v] to {!Mat.mulv_t}. *)

val syr : alpha:float -> Vec.t -> Mat.t -> unit
(** [syr ~alpha x a] performs the symmetric rank-1 update
    [a <- a + alpha x xᵀ], writing both triangles. *)

