type t = {
  graph : Ic_topology.Graph.t;
  trace_clev : Ic_netflow.Trace.t;
  trace_kscy : Ic_netflow.Trace.t;
  duration_s : float;
  mix : Ic_netflow.App_mix.t;
}

let default_seed = 20_040_824

let node graph name =
  match Ic_topology.Graph.index_of_name graph name with
  | Some i -> i
  | None -> invalid_arg ("Abilene: missing PoP " ^ name)

(* Generate connections between one node pair over the capture window plus
   a lead-in, then shift times so the capture starts at 0. Connections from
   the lead-in that are still alive at time 0 have no SYN inside the window
   and land in the paper's "unknown" class. *)
let pair_connections rng ~n ~a ~b ~duration_s ~connections_per_bin ~mix
    ~lead_in_s ~mean_rate_bps =
  let bin_s = 300. in
  let bins = int_of_float (Float.ceil ((duration_s +. lead_in_s) /. bin_s)) in
  let mean_conn = Ic_netflow.App_mix.mean_connection_bytes mix in
  let per_bin_bytes = connections_per_bin *. mean_conn in
  let activity =
    Array.init bins (fun _ ->
        Array.init n (fun i ->
            (* a initiates a bit more than b: gives the two directions
               distinct but similar f, as in the paper's Figure 4 *)
            if i = a then 0.55 *. per_bin_bytes
            else if i = b then 0.45 *. per_bin_bytes
            else 0.))
  in
  let preference =
    Array.init n (fun i -> if i = a then 0.5 else if i = b then 0.5 else 0.)
  in
  let workload =
    {
      Ic_netflow.Connection.activity_bytes = activity;
      preference;
      mix;
      bin_s;
      mean_rate_bps;
    }
  in
  let connections = Ic_netflow.Connection.generate workload rng in
  List.map
    (fun (c : Ic_netflow.Connection.t) ->
      { c with start_s = c.start_s -. lead_in_s })
    connections

let generate ?(seed = default_seed) ?(duration_s = 7200.)
    ?(connections_per_bin = 220.) () =
  let graph = Ic_topology.Topologies.abilene_like () in
  let n = Ic_topology.Graph.node_count graph in
  let ipls = node graph "IPLS" in
  let clev = node graph "CLEV" in
  let kscy = node graph "KSCY" in
  let rng = Ic_prng.Rng.create seed in
  let mix = Ic_netflow.App_mix.default in
  (* Foreground: interactive-rate transfers; background: a slower class of
     long-lived connections (bulk P2P/FTP) some of which started before the
     capture window and therefore classify as unknown. *)
  let pair a b =
    pair_connections (Ic_prng.Rng.fork rng) ~n ~a ~b ~duration_s
      ~connections_per_bin:(0.75 *. connections_per_bin)
      ~mix ~lead_in_s:600. ~mean_rate_bps:2e6
    @ pair_connections (Ic_prng.Rng.fork rng) ~n ~a ~b ~duration_s
        ~connections_per_bin:(0.25 *. connections_per_bin)
        ~mix ~lead_in_s:10800. ~mean_rate_bps:1.5e3
  in
  let conns_clev = pair ipls clev in
  let conns_kscy = pair ipls kscy in
  {
    graph;
    trace_clev =
      Ic_netflow.Trace.capture conns_clev ~node_i:ipls ~node_j:clev
        ~duration_s;
    trace_kscy =
      Ic_netflow.Trace.capture conns_kscy ~node_i:ipls ~node_j:kscy
        ~duration_s;
    duration_s;
    mix;
  }
