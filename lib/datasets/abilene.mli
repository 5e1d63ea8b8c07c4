(** Synthetic stand-in for dataset D3: a pair of two-hour bidirectional
    packet-header traces at the Abilene IPLS node, on the links toward CLEV
    and KSCY (paper Section 4). Connections are generated with the default
    application mix, whose byte-weighted forward fraction sits in the
    0.2–0.3 band the paper measures; a lead-in period before the capture
    window populates the "unknown" class (connections whose handshake
    precedes the trace). *)

type t = {
  graph : Ic_topology.Graph.t;
  trace_clev : Ic_netflow.Trace.t;  (** IPLS <-> CLEV *)
  trace_kscy : Ic_netflow.Trace.t;  (** IPLS <-> KSCY *)
  duration_s : float;
  mix : Ic_netflow.App_mix.t;
}

val default_seed : int

val generate :
  ?seed:int ->
  ?duration_s:float ->
  ?connections_per_bin:float ->
  unit ->
  t
(** Default: 7200 s capture, ~220 connections initiated per 5-minute bin
    per node pair. 85% of connections are foreground transfers (600 s
    lead-in), 15% a slow long-lived class with a 7200 s lead-in that
    populates the unknown category. *)
