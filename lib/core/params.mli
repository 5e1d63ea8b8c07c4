(** Parameter sets for the family of independent-connection models
    (paper Section 3.1, Equations 1–5).

    Conventions: [n] nodes, [t] bins. Activities are in bytes per bin;
    preferences are kept normalized to sum 1 so they can be read directly as
    responder-choice probabilities. The forward fraction [f] lies in
    [[0, 1]]. *)

type stable_fp = {
  f : float;  (** network-wide forward-traffic fraction *)
  preference : Ic_linalg.Vec.t;  (** [P_i], normalized, length n *)
  activity : Ic_linalg.Vec.t array;  (** [A_i(t)], one vector per bin *)
}
(** Equation 5: [f] and [P] stable in time, activity time-varying. *)

type stable_f = {
  f : float;
  preference : Ic_linalg.Vec.t array;  (** [P_i(t)], normalized per bin *)
  activity : Ic_linalg.Vec.t array;
}
(** Equation 4. *)

type time_varying = {
  f : float array;  (** [f(t)] *)
  preference : Ic_linalg.Vec.t array;
  activity : Ic_linalg.Vec.t array;
}
(** Equation 3. *)

type general = {
  f_matrix : Ic_linalg.Mat.t;  (** [f_ij], n x n, entries in [0,1] *)
  preference : Ic_linalg.Vec.t;
  activity : Ic_linalg.Vec.t;
}
(** Equation 1 for a single bin: per-OD-pair forward fractions, for networks
    with routing asymmetry (paper Section 5.6). *)

val nodes : stable_fp -> int

(** Degrees-of-freedom accounting from paper Section 5.1, used to make the
    point that the IC model fits better with fewer inputs. *)

val dof_gravity : n:int -> t:int -> int
(** [2nt - 1]. *)

val dof_time_varying : n:int -> t:int -> int
(** [3nt]. *)

val dof_stable_f : n:int -> t:int -> int
(** [2nt + 1]. *)

val dof_stable_fp : n:int -> t:int -> int
(** [nt + n + 1]. *)
