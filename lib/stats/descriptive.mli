(** Descriptive statistics over float arrays. All functions raise
    [Invalid_argument] on empty input unless stated otherwise. *)

val mean : float array -> float

val variance : float array -> float
(** Unbiased sample variance (denominator [n-1]); 0 for singleton input. *)

val stddev : float array -> float

val min : float array -> float

val max : float array -> float

val median : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [[0,1]], linear interpolation between order
    statistics. Does not modify its input. *)

val summary : float array -> string
(** One-line [n/mean/sd/min/median/max] rendering for reports. *)

type histogram = { edges : float array; counts : int array }
(** [edges] has length [bins + 1]; [counts.(k)] covers
    [edges.(k) <= x < edges.(k+1)] (last bin right-closed). *)

val histogram : ?bins:int -> float array -> histogram
(** Equal-width histogram (default 20 bins). *)
