(** Minimal CSV (de)serialization for TM series and generic numeric tables —
    enough to export experiment outputs and round-trip datasets without any
    external dependency. *)

val read_table : path:string -> string list * float list list
(** Read a header line and rows of numbers, as
    {!Ic_report.Series_out.to_csv} writes them. Raises [Failure] on
    malformed numeric cells. *)

val write_series : path:string -> Series.t -> unit
(** One row per bin: [bin, origin, destination, bytes], only non-zero
    entries. *)

val read_series :
  path:string -> binning:Ic_timeseries.Timebin.t -> n:int -> Series.t
(** Inverse of {!write_series}; bins absent from the file become zero TMs.
    The number of bins is taken from the largest bin index present. *)
