(* What one workload run reports, and the final JSON line. The metric names
   and units here are the ones BENCHMARK.json declares. *)

type metric = { name : string; value : float; unit : string }

type result = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (* filled only by traced runs *)
}

let m name unit value = { name; value; unit }

(* Every workload reports every end-to-end metric, so stream and serve
   figures share names: throughput is bins/s or queries/s, latency is one
   Engine.step or one round trip (README.md maps them). *)
let e2e_names =
  [
    ("throughput_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_tail_us", "us");
    ("rel_l2_mean", "ratio");
    ("state_mb", "MB");
    ("setup_s", "s");
  ]

let kinds = [ "ping"; "latest_tm"; "od_flow"; "topology"; "whatif" ]

(* Every traced run reports every per-layer metric; a layer the workload
   does not run reads 0. *)
let layer_names =
  [
    ("engine.step.self_us", "us/bin");
    ("engine.ingest_us", "us/bin");
    ("engine.prior_us", "us/bin");
    ("engine.prior.p50_us", "us");
    ("engine.prior.tail_us", "us");
    ("engine.estimate.self_us", "us/bin");
    ("tomogravity.gram_us", "us/bin");
    ("tomogravity.factorize_us", "us/bin");
    ("tomogravity.solve_us", "us/bin");
    ("tomogravity.clamp_us", "us/bin");
    ("engine.ipf_us", "us/bin");
    ("engine.refit_ms", "ms/refit");
    ("refit.count", "count");
    ("fastpath.hit_ratio", "ratio");
    ("fastpath.refactorizations", "count");
    ("ipf.iterations_per_bin", "1/bin");
    ("estimate.clamped_per_bin", "1/bin");
    ("degrade.transitions", "count");
    ("alloc_kb_per_bin", "KB/bin");
    ("gc.minor_per_1k_bins", "count/1k-bins");
    ("gc.major_per_1k_bins", "count/1k-bins");
    ("wire.decode_us", "us/req");
  ]
  @ List.map (fun k -> ("wire.encode_us." ^ k, "us/req")) kinds
  @ List.map (fun k -> ("handler.handle_us." ^ k, "us/req")) kinds
  @ List.map (fun k -> ("serve.rtt_us." ^ k, "us")) kinds
  @ [
      ("client.decode_us", "us/req");
      ("serve.transport_us", "us/req");
      ("serve.resp_bytes", "B/req");
      ("ledger.unattributed_us", "us/op");
      ("trace.overhead_pct", "%");
    ]

(* Complete [given] to exactly [names], in order: missing layers read 0.
   A name outside [names] or a unit mismatch is a benchmark bug. *)
let complete names given =
  List.iter
    (fun g ->
      match List.assoc_opt g.name names with
      | Some u when u = g.unit -> ()
      | _ ->
          failwith
            (Printf.sprintf "perfbench: undeclared metric %s (%s)" g.name g.unit))
    given;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun g -> g.name = name) given with
      | Some g -> g
      | None -> m name unit 0.)
    names

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

(* A per-process file under the build directory: the run writes nowhere
   else. Relative, so a Unix socket path stays short whatever the checkout
   path is. *)
let scratch_file ext =
  let dir = ".bench_build" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat dir (Printf.sprintf "perfbench-%d.%s" (Unix.getpid ()) ext)
