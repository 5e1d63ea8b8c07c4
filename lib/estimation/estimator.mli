(** First-class TM estimators: the three-step blueprint (prior x solver x
    refinement) as composable stages behind one interface, plus a registry
    so the CLI, the streaming engine, and the shootout harness rank every
    family without naming any.

    {2 Contract}

    An estimator is calibrated once ({!S.calibrate}, from an optional
    training series) into an explicit {!state}, then applied per bin as
    [project (refine (prior ctx)) ctx]. The three stage functions must be
    {e pure} with respect to the state — they may read it but never write
    it — which is what makes batch estimation embarrassingly parallel and
    bit-identical at every job count ({!Pipeline.run_estimator}). The only
    sanctioned mutation point is {!S.observe}, which the streaming engine
    calls sequentially after each accepted bin; everything an estimator
    learns online must live in the state's named float slabs, because that
    is exactly what rides engine checkpoints (see {!Ic_runtime.Checkpoint};
    NaN and infinity payloads survive bit-exactly). *)

type ipf_tally = { mutable iterations : int; mutable unconverged : int }
(** IPF work done for one bin: sweeps summed over every run, and the runs
    that stopped at the iteration cap. *)

type ctx = {
  routing : Ic_topology.Routing.t;
      (** built [~with_marginals:true] — the stages need the marginal
          pseudo-link rows *)
  plan : Tomogravity.plan;
      (** host-owned plan over [routing]; single-threaded like every plan *)
  link_loads : Ic_linalg.Vec.t;  (** one entry per routing row *)
  ingress : Ic_linalg.Vec.t;  (** the marginal rows of [link_loads] *)
  egress : Ic_linalg.Vec.t;
  bin : int;  (** bin index within the host's stream or series *)
  weights : Ic_linalg.Vec.t option;
      (** least-squares weights for {!tomogravity_refine}: [None] weights
          by the prior being refined; the streaming engine passes the
          weights it froze at the first bin of the current regime, so
          consecutive bins reuse the plan's cached factor *)
  ipf : ipf_tally;
      (** fresh per bin; {!ipf_project} adds every run to it and the
          engine reads it after the projection stage *)
}
(** Everything one bin's estimate may depend on besides the estimator's
    own state. *)

val make_ctx :
  routing:Ic_topology.Routing.t ->
  plan:Tomogravity.plan ->
  link_loads:Ic_linalg.Vec.t ->
  ?bin:int ->
  unit ->
  ctx
(** Derives the marginal views from [link_loads], with [weights = None]
    and an empty IPF tally. Raises [Invalid_argument] if the routing lacks
    marginal rows or the load vector length does not match. *)

type state
(** Named float-array slabs owned by one calibrated estimator instance.
    Serializable by construction: the checkpoint codec round-trips the
    owner name and every slab bit-exactly, adversarial names included. *)

val state_create : owner:string -> (string * float array) list -> state
val state_owner : state -> string

val state_slabs : state -> (string * float array) list
(** In insertion order — the order the checkpoint codec encodes. *)

val slab : state -> string -> float array
(** Raises [Invalid_argument] when the slab does not exist. *)

val state_copy : state -> state
(** Deep copy — what engine snapshots take so later bins cannot mutate
    history. *)

val state_equal : state -> state -> bool
(** Bitwise float comparison (NaN-safe), both slab names and payloads. *)

module type S = sig
  val name : string
  (** Registry key and CLI spelling ([ic-lab estimate --estimator name]). *)

  val doc : string
  (** One-sentence description, shown by the shootout and error messages. *)

  val calibrate :
    routing:Ic_topology.Routing.t ->
    train:Ic_traffic.Series.t option ->
    state
  (** Build the instance state. [train] is the training split in batch
      mode and [None] in the streaming engine (calibrate from nothing,
      learn through {!observe}). May raise [Invalid_argument] when the
      family cannot run without training data. *)

  val prior : state -> ctx -> Ic_traffic.Tm.t
  (** Step 1. Pure w.r.t. the state. *)

  val refine : state -> ctx -> prior:Ic_traffic.Tm.t -> Ic_traffic.Tm.t * int
  (** Step 2 against the bin's link loads, returning the estimate and the
      number of entries its non-negativity clamps zeroed (the pipeline-wide
      audit — never swallow a clamp). Pure w.r.t. the state. A family that
      refines once against its prior should solve with [ctx.weights] (as
      {!tomogravity_refine} does); one whose method re-derives the weights
      on every pass refines with [weights = None]. *)

  val project : state -> ctx -> Ic_traffic.Tm.t -> Ic_traffic.Tm.t
  (** Step 3 onto the measured marginals (or any family-specific
      post-processing, e.g. integer rounding). Pure w.r.t. the state. *)

  val observe : state -> ctx -> estimate:Ic_traffic.Tm.t -> unit
  (** Streaming-only state update, called sequentially once per accepted
      bin. Batch drivers never call it. *)
end

val estimate_bin :
  (module S) -> state -> ctx -> Ic_traffic.Tm.t * int
(** One bin through the three stages; returns the estimate and the clamp
    count from {!S.refine}. *)

(** {2 Registry} *)

val register : (module S) -> unit
(** Raises [Invalid_argument] on a duplicate name. *)

val names : unit -> string list
(** Sorted. The built-in families — [gravity], [ic], [integer-tomography],
    [tomogravity], [tomogravity-iterative] — are registered at module
    initialization. *)

val mem : string -> bool
val find : string -> (module S) option

val find_exn : string -> (module S)
(** Raises [Invalid_argument] listing the registered names — the message
    the CLI surfaces for an unknown [--estimator]. *)

val doc : string -> string option

(** {2 Stage building blocks}

    Shared by the built-in families and exported for out-of-tree ones. *)

val gravity_prior : ctx -> Ic_traffic.Tm.t
(** Generalized gravity from the bin's measured marginals; the zero matrix
    for an all-idle bin. *)

val ipf_project : ctx -> Ic_traffic.Tm.t -> Ic_traffic.Tm.t
(** IPF onto the measured marginals (identity for an all-idle bin). Each
    run adds its iterations, and its non-convergence, to [ctx.ipf]. *)

val tomogravity_refine : ctx -> prior:Ic_traffic.Tm.t -> Ic_traffic.Tm.t * int
(** Weighted least squares through the ctx's plan, with the clamp count
    read back from the plan hook. Weights are [ctx.weights], or the
    clamped prior when [None]; a bitwise repeat of the previous bin's
    weights reuses the plan's factor. *)
