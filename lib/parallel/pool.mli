(** A fixed pool of OCaml 5 domains for deterministic data-parallel
    estimation — the multicore execution layer everything in this library
    schedules onto.

    Design invariants (see DESIGN.md "Parallel architecture"):

    + {b Fixed pool, shared queue.} [create ~jobs] spawns [jobs - 1] worker
      domains once; the submitting caller is always worker slot 0, so a
      pool of [jobs = 1] spawns no domains and runs every task inline —
      byte-for-byte the sequential code path, not an approximation of it.
      Work is split into index chunks handed out from a shared atomic
      cursor; domains that find the queue empty (more domains than chunks)
      simply return.
    + {b Deterministic results.} [map] writes each result into its input's
      slot, so the outcome is a pure function of the inputs — never of the
      scheduling. Any run order gives results bit-identical to [jobs = 1].
    + {b Per-domain randomness, never shared.} Each worker slot owns one
      jump-ahead split of the pool's PRNG stream ({!Ic_prng.Rng.split}).
      Tasks address it by the [slot] index they are called with; no
      generator is ever visible to two domains in the same parallel
      region.
    + {b Exceptions propagate after the drain.} If a task raises, the
      remaining chunks are skipped (each task sees a poisoned flag), every
      domain quiesces, and the first exception is re-raised on the caller
      with its backtrace — no hung domains, no half-running pool.

    A pool is single-submitter: only one parallel region runs at a time,
    and only the domain that created the pool may submit (nested
    submissions from inside a task deadlock — don't). Workers block on a
    condition variable between regions, so an idle pool burns no CPU. *)

type t

val create : ?jobs:int -> ?seed:int -> ?tracer:Ic_obs.Trace.t -> unit -> t
(** [create ~jobs ~seed ()] builds a pool of [jobs] workers (the caller
    plus [jobs - 1] spawned domains). [jobs] defaults to
    [Domain.recommended_domain_count ()]; [seed] (default 0) seeds the
    per-slot PRNG streams. Raises [Invalid_argument] if [jobs < 1].

    When [tracer] is an enabled tracer, the pool records one [pool.region]
    span per parallel region and keeps per-slot {!slot_stats} (chunk
    handout accounting: queue-wait vs run time per domain). With the
    default no-op tracer, none of that accounting executes. *)

val size : t -> int
(** Number of worker slots, including the caller. *)

val rng : t -> slot:int -> Ic_prng.Rng.t
(** The PRNG stream owned by [slot] — substream [slot] of the pool seed,
    derived by jump-ahead so streams never overlap. Only the task currently
    running on [slot] may draw from it. Note that consuming draws from pool streams makes results
    depend on how work was chunked; deterministic callers draw from
    per-{e task} splits instead, or avoid pool randomness entirely. *)

val run_chunks : t -> chunks:int -> (slot:int -> chunk:int -> unit) -> unit
(** [run_chunks t ~chunks f] calls [f ~slot ~chunk] exactly once for every
    [chunk] in [0 .. chunks-1], distributed over the pool; [slot]
    identifies the worker (and its scratch state) executing the chunk.
    Returns when every chunk has finished. If any [f] raises, the first
    exception is re-raised here after all domains drain. The primitive
    {!map} is built on. *)

val map : t -> ?chunk:int -> n:int -> (slot:int -> int -> 'a) -> 'a array
(** [map t ~n f] is [Array.init n (f ~slot)] computed on the pool:
    element [i] of the result is [f ~slot i] for whichever [slot] ran it.
    [chunk] is the number of consecutive indices per queue entry (default:
    [n] split ~4 ways per worker, min 1). Deterministic whenever [f]'s
    value depends only on [i] (and not on scratch-state history). *)

type slot_stats = {
  chunks : int;  (** chunks this slot ran (attempted ones included) *)
  run_ns : float;  (** time spent inside chunk bodies *)
  wait_ns : float;
      (** time parked on a condition variable: queue wait between regions
          for workers; end-of-region straggler wait for the caller (slot 0) *)
}

val stats : t -> slot_stats array
(** Cumulative per-slot accounting since [create], index = slot. All zeros
    unless the pool was created with an enabled tracer. Call between
    regions — reading during a region sees a torn snapshot. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent. Further submissions raise
    [Invalid_argument]. *)

val with_pool : ?jobs:int -> ?seed:int -> ?tracer:Ic_obs.Trace.t -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)
