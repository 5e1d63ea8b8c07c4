(** Routing matrices.

    The TM estimation problem is [Y = R x] where [x] is the traffic matrix as
    a vector (OD pair [(i,j)] at index [i*n + j]), [Y] the vector of link
    counts and [R] the routing matrix: [R.(r).(s)] is the fraction of OD pair
    [s]'s traffic crossing link [r]. With ECMP, entries are fractional
    (equal per-hop splitting over shortest-path next hops). Intra-PoP pairs
    [(i,i)] traverse no backbone link.

    Optionally the matrix is extended with [2n] pseudo-link rows carrying the
    node ingress and egress counts, which are the measurements the gravity
    model and the closed-form IC estimators consume. *)

type t = {
  graph : Graph.t;
  matrix : Ic_linalg.Sparse.t;
  with_marginals : bool;
      (** when true, rows [edge_count ..] are the n ingress rows followed by
          the n egress rows *)
}

val od_index : n:int -> int -> int -> int
(** [od_index ~n i j = i * n + j]. *)

val build : ?with_marginals:bool -> Graph.t -> t
(** Construct the routing matrix by ECMP shortest-path routing over the IGP
    weights (default [with_marginals] is [true]). Raises [Invalid_argument]
    if some OD pair has no route (disconnected graph). *)

val rebuild : ?down:int list -> ?reweight:(int * float) list -> t -> t
(** Recompute routes after a topology event, keeping the published matrix
    shape fixed: edges in [down] are removed from shortest-path computation
    but keep their (now structurally empty) rows, and [reweight] overrides
    IGP weights by edge id, so the result has the same [row_count],
    [od_count] and row indexing as [t] and existing feeds/engines need no
    re-dimensioning. The graph field remains the original (pre-failure)
    graph — capacities and names are unchanged. Raises [Invalid_argument]
    on an out-of-range edge id, a non-positive/non-finite weight, or a
    failure set that disconnects the residual graph (every OD pair must
    still have a route). *)

val link_loads : t -> Ic_linalg.Vec.t -> Ic_linalg.Vec.t
(** [link_loads r x] is [R x]: the observable link (and marginal) counts for
    a TM vector. *)

val row_count : t -> int

val od_count : t -> int

val ingress_row : t -> int -> int
(** Row index of node [i]'s ingress count. Raises if built without
    marginals. *)

val egress_row : t -> int -> int
