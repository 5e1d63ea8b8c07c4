(** Weighted directed graphs representing PoP-level network topologies.

    Nodes are integers [0 .. node_count - 1] with optional names (PoP codes).
    Each physical bidirectional link is stored as two directed edges, because
    link-load measurements (SNMP counters) are per direction. *)

type edge = {
  id : int;  (** dense edge index, [0 .. edge_count - 1] *)
  src : int;
  dst : int;
  weight : float;  (** IGP metric used for shortest-path routing *)
  capacity : float;  (** bytes per second, for utilization reports *)
}

type t

val create : names:string array -> t
(** A graph with the given named nodes and no edges. *)

val add_edge : ?weight:float -> ?capacity:float -> t -> int -> int -> t
(** [add_edge g u v] adds the directed edge [u -> v] (default weight 1,
    default capacity 1e9). Self-loops and duplicate edges are rejected. *)

val add_link : ?weight:float -> ?capacity:float -> t -> int -> int -> t
(** Add both directions of a physical link. *)

val node_count : t -> int

val edge_count : t -> int

val name : t -> int -> string

val index_of_name : t -> string -> int option

val edges : t -> edge list
(** All edges in increasing [id] order. *)

val edge : t -> int -> edge

val out_edges : t -> int -> edge list

val find_edge : t -> src:int -> dst:int -> edge option

val is_connected : t -> bool
(** Weak connectivity when treating edges as undirected. Vacuously true for
    graphs with at most one node. *)

