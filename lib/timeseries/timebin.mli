(** Time-bin arithmetic for TM series.

    The paper's datasets use 5-minute bins (Géant: 2016 bins per week) and
    15-minute bins (Totem: 672 bins per week). A binning fixes the bin width
    in seconds; bin indices count from an epoch at Monday 00:00. *)

type t = { width_s : int }

val five_min : t

val fifteen_min : t

val make : width_s:int -> t
(** Raises [Invalid_argument] unless the width is positive and divides a
    week. *)

val bins_per_day : t -> int

val bins_per_week : t -> int

val seconds_of_bin : t -> int -> int
(** Start time in seconds since the epoch of bin [k]. *)

val hour_of_day : t -> int -> float
(** Fractional hour of day in [[0, 24)] at the bin's start. Well-defined for
    negative bin indices (calendar semantics: bin [-1] ends at midnight). *)

val day_of_week : t -> int -> int
(** 0 = Monday ... 6 = Sunday. Calendar semantics for negative bins: the bin
    just before the epoch is a Sunday. *)

val is_weekend : t -> int -> bool
