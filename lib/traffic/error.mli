(** Estimation-error metrics. The paper's accuracy metric throughout is the
    relative l2 temporal error (its Equation 6), following Soule et al. *)

val rel_l2_temporal : Tm.t -> Tm.t -> float
(** [rel_l2_temporal truth estimate] is
    [||truth - estimate||_F / ||truth||_F] for one time bin. Raises
    [Invalid_argument] on size mismatch or an all-zero truth. *)

val rel_l2_series : Series.t -> Series.t -> float array
(** Per-bin temporal errors across a series. *)

val improvement_pct : baseline:float -> candidate:float -> float
(** [100 * (baseline - candidate) / baseline]: positive when the candidate
    has smaller error. Raises on non-positive baseline. *)

val improvement_series : baseline:float array -> candidate:float array ->
  float array
(** Pointwise percentage improvements. *)
