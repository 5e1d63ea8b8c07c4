module Nf = Ic_netflow

let feq = Alcotest.(check (float 1e-9))

let feq_tol tol = Alcotest.(check (float tol))

(* --- App_mix --- *)

let test_mix_aggregate () =
  let f = Nf.App_mix.aggregate_f Nf.App_mix.default in
  Alcotest.(check bool) "in the paper's band" true (f > 0.15 && f < 0.35);
  Alcotest.(check bool)
    "mean bytes positive" true
    (Nf.App_mix.mean_connection_bytes Nf.App_mix.default > 0.)

let test_mix_draw () =
  let rng = Ic_prng.Rng.create 1 in
  for _ = 1 to 100 do
    let app = Nf.App_mix.draw Nf.App_mix.default rng in
    Alcotest.(check bool) "valid f" true
      (app.forward_fraction > 0. && app.forward_fraction < 1.)
  done

let test_mix_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "App_mix.make: empty mix")
    (fun () -> ignore (Nf.App_mix.make []));
  let bad =
    { Nf.App_mix.name = "x"; forward_fraction = 1.5; mean_bytes = 1.;
      size_alpha = 2.; dst_port = 1 }
  in
  Alcotest.check_raises "bad f"
    (Invalid_argument "App_mix: forward_fraction must lie in (0,1)") (fun () ->
      ignore (Nf.App_mix.make [ (bad, 1.) ]))

(* --- Connection generation --- *)

let two_node_workload bins per_bin =
  {
    Nf.Connection.activity_bytes =
      Array.init bins (fun _ -> [| per_bin; per_bin /. 2. |]);
    preference = [| 0.5; 0.5 |];
    mix = Nf.App_mix.default;
    bin_s = 300.;
    mean_rate_bps = 1e6;
  }

let test_generate_basics () =
  let rng = Ic_prng.Rng.create 2 in
  let conns = Nf.Connection.generate (two_node_workload 4 5e6) rng in
  Alcotest.(check bool) "produced connections" true (List.length conns > 10);
  List.iter
    (fun (c : Nf.Connection.t) ->
      Alcotest.(check bool) "positive volumes" true
        (c.fwd_bytes > 0. && c.rev_bytes > 0.);
      Alcotest.(check bool) "valid endpoints" true
        (c.initiator >= 0 && c.initiator < 2 && c.responder >= 0
       && c.responder < 2);
      let f = Nf.Connection.forward_fraction c in
      Alcotest.(check bool) "f in (0,1)" true (f > 0. && f < 1.))
    conns;
  (* sorted by start time *)
  let rec sorted = function
    | (a : Nf.Connection.t) :: (b : Nf.Connection.t) :: rest ->
        a.start_s <= b.start_s && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "time sorted" true (sorted conns)

let test_generate_deterministic () =
  let c1 = Nf.Connection.generate (two_node_workload 3 2e6) (Ic_prng.Rng.create 5) in
  let c2 = Nf.Connection.generate (two_node_workload 3 2e6) (Ic_prng.Rng.create 5) in
  Alcotest.(check int) "same count" (List.length c1) (List.length c2);
  feq "same bytes" (Nf.Connection.total_bytes c1) (Nf.Connection.total_bytes c2)

let test_generate_volume_target () =
  let rng = Ic_prng.Rng.create 7 in
  let bins = 40 and per_bin = 2e7 in
  let conns = Nf.Connection.generate (two_node_workload bins per_bin) rng in
  let total = Nf.Connection.total_bytes conns in
  (* initiated volume: node0 per_bin + node1 per_bin/2 per bin *)
  let expected = float_of_int bins *. per_bin *. 1.5 in
  Alcotest.(check bool)
    "total within 2x of target (heavy-tailed)" true
    (total > expected /. 2. && total < expected *. 3.)

let test_aggregate_f_converges () =
  let rng = Ic_prng.Rng.create 11 in
  let conns = Nf.Connection.generate (two_node_workload 60 2e7) rng in
  let f = Nf.Connection.aggregate_forward_fraction conns in
  let expected = Nf.App_mix.aggregate_f Nf.App_mix.default in
  feq_tol 0.08 "aggregate f near mix f" expected f

(* --- Packet --- *)

let sample_connection () =
  {
    Nf.Connection.id = 1;
    initiator = 0;
    responder = 1;
    app = (Nf.App_mix.apps Nf.App_mix.default).(0);
    start_s = 10.;
    duration_s = 2.;
    fwd_bytes = 3000.;
    rev_bytes = 44000.;
    initiator_port = 40000;
  }

let test_packetize () =
  let pkts = Nf.Packet.of_connection (sample_connection ()) in
  let fwd, rev = List.partition (fun p -> p.Nf.Packet.src_node = 0) pkts in
  let bytes side = List.fold_left (fun a p -> a +. p.Nf.Packet.bytes) 0. side in
  feq_tol 1e-6 "forward bytes conserved" 3000. (bytes fwd);
  feq_tol 1e-6 "reverse bytes conserved" 44000. (bytes rev);
  (* exactly one pure SYN, from the initiator, at the start *)
  let syns = List.filter (fun p -> p.Nf.Packet.syn) pkts in
  Alcotest.(check int) "one SYN" 1 (List.length syns);
  let syn = List.hd syns in
  Alcotest.(check int) "SYN from initiator" 0 syn.Nf.Packet.src_node;
  feq "SYN at start" 10. syn.Nf.Packet.time_s;
  (* one SYN-ACK from the responder *)
  let syn_acks = List.filter (fun p -> p.Nf.Packet.syn_ack) pkts in
  Alcotest.(check int) "one SYN-ACK" 1 (List.length syn_acks);
  Alcotest.(check int) "SYN-ACK from responder" 1
    (List.hd syn_acks).Nf.Packet.src_node

let test_flow_keys () =
  let pkts = Nf.Packet.of_connection (sample_connection ()) in
  let syn = List.find (fun p -> p.Nf.Packet.syn) pkts in
  let key = Nf.Packet.flow_key syn in
  let rkey = Nf.Packet.reverse_key key in
  Alcotest.(check bool) "reverse of reverse" true
    (Nf.Packet.reverse_key rkey = key)

(* --- Flow --- *)

let test_flow_aggregation () =
  let pkts = Nf.Packet.of_connection (sample_connection ()) in
  let flows = Nf.Flow.of_packets pkts ~bin_s:300. in
  (* both directions in one bin: two flow records *)
  Alcotest.(check int) "two flows" 2 (List.length flows);
  let total = List.fold_left (fun a f -> a +. f.Nf.Flow.bytes) 0. flows in
  feq_tol 1e-6 "bytes conserved" 47000. total;
  let fwd = List.find (fun f -> f.Nf.Flow.src_node = 0) flows in
  Alcotest.(check bool) "saw syn" true fwd.Nf.Flow.saw_syn

let test_flow_matching () =
  let pkts = Nf.Packet.of_connection (sample_connection ()) in
  let fwd_pkts, rev_pkts =
    List.partition (fun p -> p.Nf.Packet.src_node = 0) pkts
  in
  let fwd = Nf.Flow.of_packets fwd_pkts ~bin_s:300. in
  let rev = Nf.Flow.of_packets rev_pkts ~bin_s:300. in
  let pairs = Nf.Flow.match_bidirectional fwd rev in
  Alcotest.(check int) "one matched pair" 1 (List.length pairs)

let test_od_volume () =
  let pkts = Nf.Packet.of_connection (sample_connection ()) in
  let flows = Nf.Flow.of_packets pkts ~bin_s:300. in
  let table = Nf.Flow.od_volume flows in
  feq_tol 1e-6 "forward od" 3000.
    (Option.value ~default:0. (Hashtbl.find_opt table (0, 0, 1)));
  feq_tol 1e-6 "reverse od" 44000.
    (Option.value ~default:0. (Hashtbl.find_opt table (0, 1, 0)))

(* --- Trace: the Section 5.2 measurement --- *)

let test_measure_f_single_connection () =
  let c = { (sample_connection ()) with start_s = 50. } in
  let trace = Nf.Trace.capture [ c ] ~node_i:0 ~node_j:1 ~duration_s:300. in
  let m = Nf.Trace.measure_f trace ~bin_s:300. in
  Alcotest.(check int) "one bin" 1 (Array.length m);
  (* f_ij = I_i / (I_i + R_j) = 3000 / 47000 *)
  feq_tol 1e-9 "f_ij" (3000. /. 47000.) m.(0).f_ij;
  feq "no unknown" 0. m.(0).unknown_bytes

let test_measure_f_reverse_initiator () =
  (* a connection initiated at node 1: contributes to f_ji instead *)
  let c = { (sample_connection ()) with initiator = 1; responder = 0; start_s = 50. } in
  let trace = Nf.Trace.capture [ c ] ~node_i:0 ~node_j:1 ~duration_s:300. in
  let m = Nf.Trace.measure_f trace ~bin_s:300. in
  feq_tol 1e-9 "f_ji" (3000. /. 47000.) m.(0).f_ji;
  feq "f_ij empty" 0. m.(0).f_ij

let test_measure_f_unknown () =
  (* a connection whose SYN predates the capture window *)
  let c = { (sample_connection ()) with start_s = -1.; duration_s = 10. } in
  let trace = Nf.Trace.capture [ c ] ~node_i:0 ~node_j:1 ~duration_s:300. in
  let m = Nf.Trace.measure_f trace ~bin_s:300. in
  Alcotest.(check bool) "unknown bytes present" true (m.(0).unknown_bytes > 0.);
  feq "no known bytes" 0. m.(0).known_bytes;
  Alcotest.(check bool)
    "unknown fraction is 1" true
    (Nf.Trace.unknown_fraction m = 1.)

let test_capture_filters () =
  (* connections not involving the pair are excluded *)
  let other = { (sample_connection ()) with initiator = 2; responder = 3 } in
  let trace = Nf.Trace.capture [ other ] ~node_i:0 ~node_j:1 ~duration_s:300. in
  Alcotest.(check int) "no packets" 0
    (List.length trace.fwd + List.length trace.rev)

(* --- Sampling --- *)

let test_sampling_unbiased () =
  let rng = Ic_prng.Rng.create 13 in
  let n = 3000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Nf.Sampling.estimate_volume rng ~rate:1000 ~pkt_bytes:700. 1e8
  done;
  feq_tol 3e6 "unbiased" 1e8 (!acc /. float_of_int n)

let test_sampling_zero () =
  let rng = Ic_prng.Rng.create 17 in
  feq "zero" 0. (Nf.Sampling.estimate_volume rng ~rate:1000 ~pkt_bytes:700. 0.)

(* --- Aggregate --- *)

let test_aggregate_to_series () =
  let rng = Ic_prng.Rng.create 29 in
  let bins = 6 in
  let conns = Nf.Connection.generate (two_node_workload bins 1e7) rng in
  let series =
    Nf.Aggregate.to_series conns ~n:2 ~binning:Ic_timeseries.Timebin.five_min
      ~bins
  in
  Alcotest.(check int) "bins" bins (Ic_traffic.Series.length series);
  let series_total =
    Array.fold_left ( +. ) 0. (Ic_traffic.Series.total_series series)
  in
  let total = Nf.Connection.total_bytes conns in
  (* bytes spread over connection lifetimes; only window spill is lost *)
  Alcotest.(check bool) "window captures nearly all bytes" true
    (series_total > 0.9 *. total && series_total <= total +. 1e-6)

let test_aggregate_matches_model () =
  (* the connection simulator converges to Equation 2; a tame-tailed mix is
     used so the law of large numbers bites within the test budget *)
  let rng = Ic_prng.Rng.create 31 in
  let bins = 80 in
  let activity = [| 2e7; 1e7 |] in
  let preference = [| 0.3; 0.7 |] in
  let tame app = { app with Nf.App_mix.size_alpha = 2.8 } in
  let mix =
    Nf.App_mix.make
      [
        (tame { Nf.App_mix.name = "web"; forward_fraction = 0.06;
                mean_bytes = 60_000.; size_alpha = 2.8; dst_port = 80 }, 0.6);
        (tame { Nf.App_mix.name = "p2p"; forward_fraction = 0.35;
                mean_bytes = 200_000.; size_alpha = 2.8; dst_port = 6346 }, 0.4);
      ]
  in
  let workload =
    {
      Nf.Connection.activity_bytes = Array.init bins (fun _ -> activity);
      preference;
      mix;
      bin_s = 300.;
      mean_rate_bps = 1e6;
    }
  in
  let conns = Nf.Connection.generate workload rng in
  let series =
    Nf.Aggregate.to_series conns ~n:2 ~binning:Ic_timeseries.Timebin.five_min
      ~bins
  in
  (* average the simulated TMs and compare to the expectation *)
  let mean_tm = Ic_traffic.Tm.create 2 in
  for k = 0 to bins - 1 do
    let tm = Ic_traffic.Series.tm series k in
    for i = 0 to 1 do
      for j = 0 to 1 do
        Ic_traffic.Tm.add_to mean_tm i j
          (Ic_traffic.Tm.get tm i j /. float_of_int bins)
      done
    done
  done;
  let expected =
    Ic_core.Model.simplified ~f:(Nf.App_mix.aggregate_f mix) ~activity
      ~preference
  in
  let err = Ic_traffic.Error.rel_l2_temporal expected mean_tm in
  Alcotest.(check bool) "within 15% of Equation 2" true (err < 0.15)

let () =
  Alcotest.run "ic_netflow"
    [
      ( "app_mix",
        [
          Alcotest.test_case "aggregate f" `Quick test_mix_aggregate;
          Alcotest.test_case "draw" `Quick test_mix_draw;
          Alcotest.test_case "validation" `Quick test_mix_validation;
        ] );
      ( "connection",
        [
          Alcotest.test_case "basics" `Quick test_generate_basics;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "volume target" `Quick test_generate_volume_target;
          Alcotest.test_case "aggregate f" `Quick test_aggregate_f_converges;
        ] );
      ( "packet",
        [
          Alcotest.test_case "packetize" `Quick test_packetize;
          Alcotest.test_case "flow keys" `Quick test_flow_keys;
        ] );
      ( "flow",
        [
          Alcotest.test_case "aggregation" `Quick test_flow_aggregation;
          Alcotest.test_case "bidirectional matching" `Quick test_flow_matching;
          Alcotest.test_case "od volume" `Quick test_od_volume;
        ] );
      ( "trace",
        [
          Alcotest.test_case "single connection f" `Quick
            test_measure_f_single_connection;
          Alcotest.test_case "reverse initiator" `Quick
            test_measure_f_reverse_initiator;
          Alcotest.test_case "unknown class" `Quick test_measure_f_unknown;
          Alcotest.test_case "capture filters" `Quick test_capture_filters;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "unbiased" `Quick test_sampling_unbiased;
          Alcotest.test_case "zero" `Quick test_sampling_zero;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "to series" `Quick test_aggregate_to_series;
          Alcotest.test_case "matches Equation 2" `Quick
            test_aggregate_matches_model;
        ] );
    ]
