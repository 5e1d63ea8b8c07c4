(** Cross-validated estimator shootout: rank every registered estimator
    family on synthetic Abilene/Geant/Totem TM datasets by held-out error
    and per-bin latency, and mark the Pareto frontier.

    The protocol is K-fold cross-validation over the bins of one
    (subsampled) week: a seeded permutation splits the bin indices into
    folds, each fold in turn is the test split and the remaining bins are
    the training split handed to {!Ic_estimation.Estimator.S.calibrate}
    through {!Ic_estimation.Pipeline.run_estimator}. Errors are RelL2
    against the ground truth of every held-out bin; the split, the data,
    and therefore the whole error table are deterministic for a given
    seed. Latency is the median wall-clock of a single-bin estimate on the
    calibrated state (suppress with [timing:false] for pinnable output). *)

type row = {
  dataset : string;
  estimator : string;
  mean_error : float;  (** CV mean RelL2 over every test bin *)
  p50_us : float option;  (** median per-bin latency; [None] with timing off *)
  clamped : int;  (** non-negativity clamps across all folds *)
  frontier : bool;
      (** not dominated on (error, latency) by any other row of the same
          dataset; error alone when timing is off *)
}

val dataset_names : string list
(** [["abilene"; "geant"; "totem"]]. *)

val run :
  ?estimators:string list ->
  ?folds:int ->
  ?seed:int ->
  ?stride:int ->
  ?timing:bool ->
  datasets:string list ->
  unit ->
  row list
(** Run the shootout. Defaults: every registered estimator, 3 folds,
    seed 42, stride 21 (96 bins per week), timing on. Rows come back
    grouped by dataset in the given order, sorted by ascending error
    within each dataset. Raises [Invalid_argument] on an unknown
    estimator (listing the registry) or dataset. *)

val render :
  folds:int -> seed:int -> stride:int -> timing:bool -> row list -> unit
(** Deterministic aligned table on stdout, plus one [pareto <dataset>: ...]
    line per dataset. With [timing:false] the latency column renders as [-]
    and the output is bit-reproducible (what the cram test pins). *)
