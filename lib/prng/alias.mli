(** Walker alias method: O(1) sampling from a fixed discrete distribution
    after O(n) preprocessing. Used for responder-node selection in the
    connection-level simulator, where millions of draws share one preference
    vector. *)

type t

val create : float array -> t
(** [create weights] preprocesses non-negative weights (not necessarily
    normalized). Raises [Invalid_argument] if empty, any weight is negative,
    or all weights are zero. *)

val draw : t -> Rng.t -> int
(** Sample an index with probability proportional to its weight. *)

