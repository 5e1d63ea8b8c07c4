(** The multi-engine supervisor: N independent streaming {!Engine}s — one
    per topology/dataset shard — multiplexed over an {!Ic_parallel.Pool}.

    Each shard owns its engine, its feed, and its telemetry sink; nothing
    mutable is shared between shards, so a round advances every live shard
    concurrently (one domain each, the {!Telemetry} single-writer rule)
    while each shard's own stream stays strictly sequential — per-shard
    estimates are bit-identical to running that shard alone.

    The supervisor multiplexes feeds round-robin: every round each
    unexhausted shard consumes up to [round_bins] bins, so long and short
    feeds interleave fairly instead of running to completion one by one,
    and the whole fleet reaches a common cut point at every round boundary
    — which is what makes the all-shard checkpoint meaningful.

    Aggregation ({!merged_counters}, {!merged_dump}) is order-independent
    (sorted counter names, shard sections sorted by shard name): the dump
    does not depend on scheduling or on the order shards were declared.

    {!save} writes one atomic checkpoint file holding every shard's engine
    snapshot (temp file + rename: a reader sees the old fleet state or the
    new one, never a mix). {!load} restores every engine and fast-forwards
    each fresh feed to its shard's position; resumed shards produce
    estimates bit-identical to never having stopped, per-shard, exactly as
    the single-engine {!Checkpoint} contract. Accumulated estimates are
    outputs, not state — they are not checkpointed. *)

type spec = {
  name : string;  (** unique, non-empty, no whitespace (checkpoint key) *)
  config : Engine.config;
  feed : Feed.t;
}

(** Crash-recovery policy. A supervised shard snapshots its engine after
    every successful bin; when a step crashes (raises), the engine is
    restored from that snapshot and the crashed bin's observation retried
    after a capped exponential backoff of
    [min backoff_cap (backoff_base * 2^(restarts-1))] budget bins (a
    stalled shard yields its round slots, it does not block the fleet).
    After [max_restarts] restarts the shard gives up permanently —
    surfaced through {!health} as a degraded fleet verdict, never a hang
    or a crash loop. Restart/backoff state rides the fleet checkpoint, so
    kill/resume mid-recovery stays bit-identical. *)
type supervise = {
  max_restarts : int;  (** lifetime restarts before giving up; >= 0 *)
  backoff_base : int;  (** first backoff, budget bins; >= 1 *)
  backoff_cap : int;  (** backoff ceiling; >= [backoff_base] *)
}

val default_supervise : supervise
(** [{ max_restarts = 3; backoff_base = 1; backoff_cap = 8 }]. *)

type t

val create :
  ?tracer:Ic_obs.Trace.t ->
  ?supervise:supervise ->
  ?chaos:(string -> int -> int -> bool) ->
  pool:Ic_parallel.Pool.t ->
  spec list ->
  t
(** Build one engine per spec. Raises [Invalid_argument] on an empty spec
    list, a duplicate/empty/whitespace name (whitespace includes newlines —
    names key the line-oriented fleet checkpoint), an invalid engine
    config (see {!Engine.create}), or an out-of-range [supervise].
    [tracer] is shared by the supervisor ([shard.round]/[shard.advance]
    spans, plus [shard.restart] under supervision) and every shard's
    engine; span recording is domain-safe, so concurrent shards may trace
    freely.

    [supervise] opts the fleet into crash recovery (see {!supervise}).
    [chaos], honored only under supervision, is a deterministic
    fault-injection seam: [chaos name bin attempt] is consulted before
    each step ([attempt] counts tries of that bin, from 1) and [true]
    makes the step crash before touching the engine — how the crash paths
    are driven by tests and the chaos smoke without randomness. *)

val engines : t -> (string * Engine.t) list
(** In spec order. Engines are live state — do not step them directly
    while a {!run} is in flight. *)

val run :
  ?max_bins:int -> ?round_bins:int -> t -> (string * Replay.result) list
(** Advance every shard to feed exhaustion (or until it has consumed
    [max_bins] bins across this supervisor's lifetime), in rounds of
    [round_bins] (default 32) bins per shard, shards within a round
    running concurrently on the pool. Returns, in spec order, each
    shard's accumulated results since {!create}/{!load} — estimates,
    per-bin prior rungs, and clamp totals, exactly as {!Replay.run}
    reports them. Idempotent once all feeds are exhausted. *)

val results : t -> (string * Replay.result) list
(** The accumulated results so far without advancing anything. *)

val health : t -> [ `Ok | `Degraded of string list ]
(** [`Degraded names] lists the shards whose supervisor gave up (crashed
    more than [max_restarts] times); their results stop at the last
    successful bin. Always [`Ok] for unsupervised fleets. *)

val restarts : t -> (string * int) list
(** Lifetime supervised restarts per shard, in spec order (all zero when
    unsupervised). *)

val merged_counters : t -> (string * int) list
(** Counters summed across all shards, sorted by name
    ({!Telemetry.merged}). Supervised fleets contribute one extra
    [<name>.supervisor] section per shard ([supervisor.crashes],
    [supervisor.restarts], [supervisor.backoff.bins],
    [supervisor.gave_up]) — kept outside the engine sinks because an
    engine restart rewinds its own counters to the snapshot. *)

val merged_dump : t -> string
(** {!Telemetry.merged_dump} over the fleet: merged totals, then each
    shard's counters, shard sections sorted by name. Deterministic for a
    deterministic observation stream. *)

val save : path:string -> t -> unit
(** Snapshot every shard's engine into one file, atomically (temp +
    rename). Raises [Sys_error] on I/O failure. *)

val load :
  ?tracer:Ic_obs.Trace.t ->
  ?supervise:supervise ->
  ?chaos:(string -> int -> int -> bool) ->
  path:string ->
  pool:Ic_parallel.Pool.t ->
  spec list ->
  (t, string) result
(** Restore a fleet: parse the checkpoint, restore each spec's engine from
    the snapshot recorded under its name, and fast-forward each (fresh)
    feed past the bins its engine already consumed. The spec list must
    carry exactly the checkpoint's shard names (any order); returns
    [Error] — never raises — on a missing/corrupt file, a name mismatch,
    or a snapshot/config shape mismatch.

    With [supervise], each shard's restart/backoff state is restored from
    the checkpoint's supervisor records (absent in fleets saved
    unsupervised or before supervision existed: recovery state starts
    quiescent), and a shard killed mid-recovery re-draws its pending
    observation with the counters suppressed — resumed fleets replay
    bit-identically to never having stopped, crashes included. *)
