(** Aggregation of connections into OD-flow traffic matrices — the step that
    turns the connection-level generative process into the TM the IC model
    describes, and the ground for validating Equation 2 against its own
    microscopic process. *)

val to_series :
  Connection.t list ->
  n:int ->
  binning:Ic_timeseries.Timebin.t ->
  bins:int ->
  Ic_traffic.Series.t
(** Forward bytes go to OD pair (initiator, responder), reverse bytes to
    (responder, initiator), spread uniformly over the connection's lifetime
    (a long transfer contributes to every bin it spans). Bytes falling
    outside the [0, bins) window are clipped — exactly what a
    fixed-duration collection sees. *)
