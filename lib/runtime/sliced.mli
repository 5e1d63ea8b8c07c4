(** A computation run in slices of bounded work.

    The computation receives a [visit] function and calls it once before
    each unit of its work. {!run} runs it until a budget of visits is
    spent; the computation then suspends inside [visit] (through an OCaml 5
    effect) and the next {!run} resumes it where it stopped. The slicing
    only decides where the computation pauses, never what it computes: a
    computation whose result depends on nothing but its inputs returns the
    same result, bit for bit, at every budget.

    A computation dropped while suspended is discontinued once the GC finds
    it unreachable: OCaml 5.1 frees a continuation's fiber stack only when
    the continuation is resumed or discontinued. *)

type 'a t

val create : ((unit -> unit) -> 'a) -> 'a t
(** [create f] prepares [f visit] without running any of it. *)

val run : 'a t -> budget:int -> unit
(** Run one slice: at most [budget] more visits, then until the next visit
    or the end of the computation. [max_int] runs it to its end. A finished
    computation is left as it is. If the computation raises, [run] raises
    the same exception and the computation must not be run again. *)

val result : 'a t -> 'a option
(** The computation's result once a slice has finished it. *)

val visits : 'a t -> int
(** Visits made so far, over every slice. A computation that makes [v]
    visits in all finishes in slice [(v - 1) / budget + 1] when every slice
    runs with the same [budget]. *)
