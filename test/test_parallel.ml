(* The multicore layer: pool scheduling edge cases, the determinism
   contract (parallel results bit-identical to sequential at every pool
   size — the property the whole design exists to guarantee), and the
   multi-engine shard supervisor with its atomic fleet checkpoint. *)

module Pool = Ic_parallel.Pool
module Pipeline = Ic_estimation.Pipeline
module Engine = Ic_runtime.Engine
module Feed = Ic_runtime.Feed
module Shard = Ic_runtime.Shard
module Replay = Ic_runtime.Replay
module Tm = Ic_traffic.Tm

(* --- shared fixture ----------------------------------------------------- *)

let graph = Ic_topology.Topologies.abilene_like ()

let routing = Ic_topology.Routing.build graph

let binning = Ic_timeseries.Timebin.five_min

let synth ~bins ~seed =
  let spec =
    {
      Ic_core.Synth.default_spec with
      nodes = Ic_topology.Graph.node_count graph;
      binning;
      bins;
      mean_total_bytes = 1e9;
    }
  in
  (Ic_core.Synth.generate spec (Ic_prng.Rng.create seed)).Ic_core.Synth.series

(* --- pool edge cases ---------------------------------------------------- *)

let test_jobs1_is_sequential () =
  (* jobs=1 must run every task inline on the caller: same domain, strict
     index order, no spawned workers. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      let caller = Domain.self () in
      let trace = ref [] in
      let out =
        Pool.map pool ~n:7 (fun ~slot i ->
            Alcotest.(check int) "slot 0" 0 slot;
            Alcotest.(check bool) "same domain" true (Domain.self () = caller);
            trace := i :: !trace;
            i * i)
      in
      Alcotest.(check (array int))
        "values"
        (Array.init 7 (fun i -> i * i))
        out;
      Alcotest.(check (list int)) "index order" [ 0; 1; 2; 3; 4; 5; 6 ]
        (List.rev !trace))

let test_empty_work () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let out = Pool.map pool ~n:0 (fun ~slot:_ _ -> assert false) in
      Alcotest.(check int) "empty map" 0 (Array.length out);
      Pool.run_chunks pool ~chunks:0 (fun ~slot:_ ~chunk:_ -> assert false))

let test_fewer_chunks_than_domains () =
  (* 2 chunks on a 4-worker pool: the surplus domains must find the queue
     empty and return without deadlocking or double-running a chunk. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let hits = Array.make 2 0 in
      let m = Mutex.create () in
      Pool.run_chunks pool ~chunks:2 (fun ~slot:_ ~chunk ->
          Mutex.lock m;
          hits.(chunk) <- hits.(chunk) + 1;
          Mutex.unlock m);
      Alcotest.(check (array int)) "each chunk once" [| 1; 1 |] hits;
      (* and the pool is still usable afterwards *)
      let out = Pool.map pool ~chunk:1 ~n:3 (fun ~slot:_ i -> i + 1) in
      Alcotest.(check (array int)) "reusable" [| 1; 2; 3 |] out)

exception Boom of int

let test_exception_propagates_after_drain () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let ran = Atomic.make 0 in
      let raised =
        match
          Pool.map pool ~chunk:1 ~n:16 (fun ~slot:_ i ->
              Atomic.incr ran;
              if i = 3 then raise (Boom i);
              i)
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      Alcotest.(check (option int)) "Boom re-raised" (Some 3) raised;
      (* Poisoning skips chunks but never loses the pool: the region must
         have fully drained, leaving the pool usable. *)
      Alcotest.(check bool) "some tasks ran" true (Atomic.get ran >= 1);
      let out = Pool.map pool ~n:5 (fun ~slot:_ i -> 2 * i) in
      Alcotest.(check (array int)) "pool survives" [| 0; 2; 4; 6; 8 |] out)

let test_per_slot_scratch_distinct () =
  Pool.with_pool ~jobs:3 ~seed:7 (fun pool ->
      for a = 0 to 2 do
        for b = a + 1 to 2 do
          Alcotest.(check bool)
            "rng streams differ" false
            (Ic_prng.Rng.float (Pool.rng pool ~slot:a)
            = Ic_prng.Rng.float (Pool.rng pool ~slot:b))
        done
      done)

let test_shutdown_rejects () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool: pool is shut down") (fun () ->
      ignore (Pool.map pool ~n:1 (fun ~slot:_ i -> i)))

(* --- bit-identity of the parallel estimation paths ----------------------- *)

let series_inputs ~bins ~seed =
  let truth = synth ~bins ~seed in
  (truth, Ic_gravity.Gravity.of_series truth)

let tm_bits tm =
  (* Bit-identical, not approximately-equal: compare IEEE-754 payloads. *)
  Array.map Int64.bits_of_float (Tm.to_vector tm)

let check_series_equal label a b =
  Alcotest.(check int) (label ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun k tm ->
      Alcotest.(check (array int64))
        (Printf.sprintf "%s bin %d bits" label k)
        (tm_bits tm) (tm_bits b.(k)))
    a

let test_run_par_bit_identical () =
  let bins = 13 in
  let truth, prior = series_inputs ~bins ~seed:99 in
  let config = Pipeline.default_config routing in
  let seq = Pipeline.run config ~truth ~prior in
  List.iter
    (fun jobs ->
      let par =
        Pool.with_pool ~jobs (fun pool ->
            Pipeline.run_par ~pool config ~truth ~prior)
      in
      let label = Printf.sprintf "jobs=%d" jobs in
      check_series_equal label
        (Array.init bins (Ic_traffic.Series.tm seq.Pipeline.estimate))
        (Array.init bins (Ic_traffic.Series.tm par.Pipeline.estimate));
      Alcotest.(check (array (float 0.)))
        (label ^ " per-bin errors") seq.Pipeline.per_bin_error
        par.Pipeline.per_bin_error;
      Alcotest.(check int)
        (label ^ " clamped") seq.Pipeline.clamped_entries
        par.Pipeline.clamped_entries)
    [ 1; 2; 4 ]

(* --- shard supervisor ---------------------------------------------------- *)

let engine_config () =
  {
    (Engine.default_config routing binning) with
    Engine.refit_every = 8;
    window = 16;
    refit_sweeps = 4;
    stale_after = 24;
    impute_budget = 1;
    recover_after = 3;
  }

let mk_specs ~shards ~bins_per_shard =
  List.init shards (fun s ->
      let series = synth ~bins:bins_per_shard ~seed:(200 + s) in
      {
        Shard.name = Printf.sprintf "s%d" s;
        config = engine_config ();
        feed =
          Feed.create ~noise_sigma:0.01 ~drop_rate:0.05 ~corrupt_rate:0.01
            routing series ~seed:(300 + s);
      })

let run_solo spec =
  (* One shard alone through a plain single-engine replay loop: the
     reference the supervisor's per-shard outputs must match bitwise. *)
  let engine = Engine.create spec.Shard.config in
  let estimates = ref [] in
  let rec loop () =
    match Feed.next spec.Shard.feed with
    | None -> ()
    | Some (loads, missing) ->
        let out = Engine.step engine ~loads ~missing in
        estimates := out.Engine.estimate :: !estimates;
        loop ()
  in
  loop ();
  Array.of_list (List.rev !estimates)

let test_shard_matches_solo () =
  (* Interleaved rounds over the pool vs each shard run alone: per-shard
     streams must be untouched by the multiplexing. round_bins=5 with 12
     bins forces uneven final rounds. *)
  let results =
    Pool.with_pool ~jobs:3 (fun pool ->
        let fleet = Shard.create ~pool (mk_specs ~shards:3 ~bins_per_shard:12) in
        Shard.run ~round_bins:5 fleet)
  in
  let solo = mk_specs ~shards:3 ~bins_per_shard:12 in
  List.iter2
    (fun (name, (r : Ic_runtime.Replay.result)) spec ->
      Alcotest.(check string) "spec order" spec.Shard.name name;
      check_series_equal ("shard " ^ name) (run_solo spec) r.Replay.estimates)
    results solo

let test_shard_merged_dump_deterministic () =
  let dump jobs =
    Pool.with_pool ~jobs (fun pool ->
        let fleet = Shard.create ~pool (mk_specs ~shards:3 ~bins_per_shard:10) in
        ignore (Shard.run ~round_bins:4 fleet);
        (Shard.merged_dump fleet, Shard.merged_counters fleet))
  in
  let d1, c1 = dump 1 and d4, c4 = dump 4 in
  Alcotest.(check string) "dump jobs-independent" d1 d4;
  Alcotest.(check (list (pair string int))) "counters jobs-independent" c1 c4;
  Alcotest.(check bool) "counters sorted" true
    (List.sort compare c1 = c1)

let test_shard_checkpoint_roundtrip () =
  let path = Filename.temp_file "ic_shards" ".ckpt" in
  let interrupted =
    Pool.with_pool ~jobs:2 (fun pool ->
        (* Run 6 of 14 bins per shard, checkpoint, then restore into a
           fresh fleet with fresh feeds and finish. *)
        let fleet =
          Shard.create ~pool (mk_specs ~shards:2 ~bins_per_shard:14)
        in
        ignore (Shard.run ~max_bins:6 ~round_bins:3 fleet);
        Shard.save ~path fleet;
        match Shard.load ~path ~pool (mk_specs ~shards:2 ~bins_per_shard:14) with
        | Error e -> Alcotest.fail e
        | Ok resumed -> Shard.run ~round_bins:3 resumed)
  in
  Sys.remove path;
  let solo = mk_specs ~shards:2 ~bins_per_shard:14 in
  (* The resumed fleet only accumulates the post-restore bins; they must
     equal the tail of the uninterrupted run. *)
  List.iter2
    (fun (name, (r : Ic_runtime.Replay.result)) spec ->
      let full = run_solo spec in
      let tail = Array.sub full 6 (Array.length full - 6) in
      check_series_equal ("resumed " ^ name) tail r.Replay.estimates)
    interrupted solo

let test_shard_load_errors () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let specs = mk_specs ~shards:2 ~bins_per_shard:4 in
      (match Shard.load ~path:"/nonexistent/fleet.ckpt" ~pool specs with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "missing file must be Error");
      let path = Filename.temp_file "ic_shards" ".ckpt" in
      let oc = open_out path in
      output_string oc "not a checkpoint\n";
      close_out oc;
      (match Shard.load ~path ~pool specs with
      | Error e ->
          Alcotest.(check bool) "mentions format" true
            (String.length e > 0)
      | Ok _ -> Alcotest.fail "garbage must be Error");
      Sys.remove path)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "jobs=1 is sequential" `Quick
            test_jobs1_is_sequential;
          Alcotest.test_case "empty work" `Quick test_empty_work;
          Alcotest.test_case "fewer chunks than domains" `Quick
            test_fewer_chunks_than_domains;
          Alcotest.test_case "exception after drain" `Quick
            test_exception_propagates_after_drain;
          Alcotest.test_case "per-slot scratch distinct" `Quick
            test_per_slot_scratch_distinct;
          Alcotest.test_case "shutdown rejects" `Quick test_shutdown_rejects;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "Pipeline.run_par" `Quick
            test_run_par_bit_identical;
        ] );
      ( "shard",
        [
          Alcotest.test_case "matches solo runs" `Quick
            test_shard_matches_solo;
          Alcotest.test_case "merged dump deterministic" `Quick
            test_shard_merged_dump_deterministic;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_shard_checkpoint_roundtrip;
          Alcotest.test_case "load errors" `Quick test_shard_load_errors;
        ] );
    ]
