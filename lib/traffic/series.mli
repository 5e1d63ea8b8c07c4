(** A time series of traffic matrices with its binning — one week (or more)
    of OD-flow data as in the paper's datasets. *)

type t = {
  binning : Ic_timeseries.Timebin.t;
  tms : Tm.t array;  (** one TM per bin *)
}

val make : Ic_timeseries.Timebin.t -> Tm.t array -> t
(** Raises [Invalid_argument] on an empty array or inconsistent TM sizes. *)

val length : t -> int

val size : t -> int
(** Number of PoPs. *)

val tm : t -> int -> Tm.t

val sub : t -> pos:int -> len:int -> t
(** Slice of bins [pos .. pos+len-1]. *)

val od_series : t -> int -> int -> float array

val total_series : t -> float array

val map : (Tm.t -> Tm.t) -> t -> t
