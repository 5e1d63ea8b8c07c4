(** Forward evaluation of the IC model family: produce traffic matrices from
    parameters (paper Equations 1–5). *)

val simplified :
  f:float ->
  activity:Ic_linalg.Vec.t ->
  preference:Ic_linalg.Vec.t ->
  Ic_traffic.Tm.t
(** Equation 2 for one bin:
    [X_ij = f A_i P_j / sum P + (1 - f) A_j P_i / sum P].
    The preference vector is normalized internally, so unnormalized
    preferences are accepted. Raises [Invalid_argument] on dimension
    mismatch, [f] outside [[0,1]], negative inputs or an all-zero
    preference. *)

val general :
  f_matrix:Ic_linalg.Mat.t ->
  activity:Ic_linalg.Vec.t ->
  preference:Ic_linalg.Vec.t ->
  Ic_traffic.Tm.t
(** Equation 1 for one bin, with per-OD forward fractions:
    [X_ij = f_ij A_i P_j / sum P + (1 - f_ji) A_j P_i / sum P]. *)

val stable_fp :
  Params.stable_fp -> Ic_timeseries.Timebin.t -> Ic_traffic.Series.t
(** Equation 5 across bins. *)

(** {2 Identities}

    These are the marginal identities (with normalized preferences,
    [S = sum_j A_j]) used by the closed-form estimators and exercised by the
    property tests. *)

val predicted_ingress :
  f:float -> activity:Ic_linalg.Vec.t -> preference:Ic_linalg.Vec.t ->
  Ic_linalg.Vec.t
(** [X_i* = f A_i + (1 - f) P_i S]. *)

val predicted_egress :
  f:float -> activity:Ic_linalg.Vec.t -> preference:Ic_linalg.Vec.t ->
  Ic_linalg.Vec.t
(** [X_*j = f P_j S + (1 - f) A_j]. *)

(** {2 The paper's worked example}

    Section 3's three-node network (Figure 2): A initiates 3 connections of
    100 packets each way, B 3 of 2 packets, C 3 of 1 packet, responders
    uniform. Used to demonstrate that packet-level ingress/egress
    independence fails even though connections are independent. *)

val fig2_example : unit -> Ic_traffic.Tm.t
(** The resulting 3x3 packet-count matrix
    ([X_AA = 200], [X_AB = 102], ...). *)

val conditional_egress : Ic_traffic.Tm.t -> egress:int -> ingress:int -> float
(** [P(E = j | I = i)] under the TM's empirical distribution. *)

val marginal_egress : Ic_traffic.Tm.t -> egress:int -> float
(** [P(E = j)]. *)
