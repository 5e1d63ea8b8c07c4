(** Shared experiment context: lazily generated datasets, bin subsampling
    and a cache of weekly model fits (several figures reuse the same
    fits). *)

type dataset_id = Geant | Totem

type t

val create : ?stride:int -> ?out_dir:string -> unit -> t
(** [stride] keeps every k-th bin of each week (default 1 = full
    resolution; the tests use larger strides for speed). Géant gets 3
    weeks and Totem 7, as in the paper. *)

val stride : t -> int

val out_dir : t -> string option

val geant : t -> Ic_datasets.Dataset.t

val totem : t -> Ic_datasets.Dataset.t

val dataset : t -> dataset_id -> Ic_datasets.Dataset.t

val abilene : t -> Ic_datasets.Abilene.t

val week_series : t -> dataset_id -> int -> Ic_traffic.Series.t
(** Subsampled series of one week. *)

val weekly_fit :
  t -> dataset_id -> int -> Ic_core.Params.stable_fp Ic_core.Fit.fitted
(** Cached stable-fP fit of one (subsampled) week. *)

val dataset_name : dataset_id -> string
