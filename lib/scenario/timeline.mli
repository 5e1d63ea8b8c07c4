(** Compile a schedule against a concrete topology and base traffic into
    the adversarial timeline the runner replays.

    Compilation does three things, all deterministic:

    + {b anomaly injection} — DDoS / flash-crowd / outage shapes are
      overlaid on copies of the base OD flows, each event drawing from its
      own {!Ic_prng.Rng.split} substream of the schedule seed (keyed by
      declaration position, so adding an event never shifts another's
      draws). Every injected excess larger than the materiality floor
      (0.2% of the base median bin total — the same floor the detector is
      scored with) becomes a ground-truth label; outages produce no labels
      because {!Ic_core.Anomaly.detect} is one-sided (excess only).
    + {b topology epochs} — link failures/recoveries and reweights
      partition the timeline into epochs, each with a routing from
      {!Ic_topology.Routing.rebuild}: same row indexing as the base
      routing, failed links' rows structurally empty. A failure set that
      disconnects the graph is rejected at compile time.
    + {b true link loads} — per bin, the injected truth routed through
      that bin's epoch routing: exactly what an SNMP collector would see,
      ready for {!Ic_runtime.Feed.of_loads}. *)

type injected = {
  kind : string;  (** ["ddos"], ["flash-crowd"] or ["outage"] *)
  target : string;  (** victim / crowded / failed PoP name *)
  at : int;
  duration : int;
  description : string;  (** {!Schedule.describe} of the source event *)
  labels : (int * int * int) list;
      (** ground-truth (bin, origin, destination) labels; empty for
          outages *)
}

type epoch = {
  from_bin : int;
  routing : Ic_topology.Routing.t;
  description : string;  (** e.g. ["down: at-de"] or ["nominal topology"] *)
}

type t = {
  graph : Ic_topology.Graph.t;
  series : Ic_traffic.Series.t;  (** injected truth *)
  label_floor : float;  (** materiality floor used for labels *)
  labels : (int * int * int) list;  (** all scored ground-truth labels *)
  injected : injected list;  (** declaration order *)
  epochs : epoch array;  (** [epochs.(0).from_bin = 0] always *)
  topo_notes : (int * string) list;
      (** report lines for topology events, by bin *)
  loads : Ic_linalg.Vec.t array;  (** per-bin truth through epoch routing *)
}

val compile :
  graph:Ic_topology.Graph.t -> base:Ic_traffic.Series.t -> Schedule.t -> t
(** Raises [Invalid_argument] on a schedule that fails
    {!Schedule.validate}, an unknown node or link name, a base series that
    does not match the graph or carries no traffic, or a failure set that
    disconnects the residual topology. *)

val epochs : graph:Ic_topology.Graph.t -> bins:int -> Schedule.t -> epoch array
(** The topology epochs {!compile} would produce, without the traffic: a
    cheap check of a schedule's link events against the graph. Raises
    [Invalid_argument] on a schedule that fails {!Schedule.validate}, an
    unknown link, or a failure set that disconnects the residual
    topology. *)

val base_routing : t -> Ic_topology.Routing.t
(** [epochs.(0).routing] — what the engine config should be built from. *)

val bins : t -> int

val routing_at : t -> int -> Ic_topology.Routing.t
(** The epoch routing in effect at a bin. Raises outside [[0, bins)]. *)

val boundaries : t -> (int * Ic_topology.Routing.t * string) list
(** Epoch starts after bin 0, in increasing bin order: the live topology
    changes the runner applies via {!Ic_runtime.Engine.set_routing}
    immediately before stepping that bin. *)
