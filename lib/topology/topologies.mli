(** Concrete PoP-level topologies.

    The Géant- and Abilene-like topologies mirror the networks behind the
    paper's datasets at the level that matters for the experiments: node
    count, PoP naming, and a connected backbone with realistic degree
    distribution. Exact link sets of the 2004 networks are not reproduced
    (they do not affect the model, only which links carry which OD pairs). *)

val geant_like : unit -> Graph.t
(** 22 PoPs named by country code — the shape of dataset D1. *)

val totem_like : unit -> Graph.t
(** 23 PoPs: Géant with 'de' split into 'de1'/'de2' — the shape of dataset
    D2 (see paper Section 4). *)

val abilene_like : unit -> Graph.t
(** 12 PoPs including IPLS, CLEV and KSCY with the instrumented link pair of
    dataset D3. *)

val star : n:int -> Graph.t
(** A hub-and-spoke topology with node 0 as hub; minimal useful topology for
    tests. *)
