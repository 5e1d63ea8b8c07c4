(* A fixed domain pool with a shared chunk queue.

   Concurrency structure: one mutex/condvar pair hands regions to workers
   (workers sleep between regions), and within a region chunks are claimed
   lock-free from an atomic cursor. Region completion is counted in chunks,
   not workers, so a worker that oversleeps an entire region (the others
   drained the queue first) costs nothing and wakes to find [job = None].

   The caller participates as slot 0. With [jobs = 1] no domain is ever
   spawned and [run_chunks] degenerates to a [for] loop — the sequential
   path is the identical code, which is what makes "jobs=1 equals
   sequential exactly" trivially true. *)

module Trace = Ic_obs.Trace

type region = {
  body : int -> unit;  (* claim-and-run loop; argument is the worker slot *)
  completed : int Atomic.t;  (* chunks finished, including skipped ones *)
  goal : int;
}

type slot_stats = { chunks : int; run_ns : float; wait_ns : float }

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_cv : Condition.t;  (* workers: a new region (or shutdown) is here *)
  done_cv : Condition.t;  (* caller: chunk count advanced *)
  mutable job : region option;
  mutable epoch : int;  (* bumped per region so late wakers skip stale work *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;  (* length jobs - 1 *)
  rngs : Ic_prng.Rng.t array;
  tracer : Trace.t;
  instrumented : bool;  (* = Trace.enabled tracer, hoisted for the hot path *)
  (* Per-slot accounting, index = slot. Each cell has a single writer (the
     domain owning that slot; done_cv waits land in the caller's slot 0),
     and readers only look between regions, so plain arrays suffice. *)
  stat_chunks : int array;
  stat_run_ns : float array;
  stat_wait_ns : float array;
}

(* Worker slots are 1-based; slot 0 is the caller. A worker sleeps on
   [work_cv] between regions and keys on [epoch] so a late waker never
   re-runs a region it already finished. *)
let make_worker t slot =
  fun () ->
    let last_epoch = ref 0 in
    Mutex.lock t.mutex;
    let rec loop () =
      if t.stopping then Mutex.unlock t.mutex
      else
        match t.job with
        | Some region when t.epoch <> !last_epoch ->
            last_epoch := t.epoch;
            Mutex.unlock t.mutex;
            region.body slot;
            Mutex.lock t.mutex;
            Condition.broadcast t.done_cv;
            loop ()
        | _ ->
            if t.instrumented then begin
              let w0 = Trace.now_ns t.tracer in
              Condition.wait t.work_cv t.mutex;
              t.stat_wait_ns.(slot) <-
                t.stat_wait_ns.(slot) +. (Trace.now_ns t.tracer -. w0)
            end
            else Condition.wait t.work_cv t.mutex;
            loop ()
    in
    loop ()

let create ?jobs ?(seed = 0) ?(tracer = Trace.noop) () =
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let base = Ic_prng.Rng.create seed in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      epoch = 0;
      stopping = false;
      workers = [||];
      rngs = Array.init jobs (fun k -> Ic_prng.Rng.split base k);
      tracer;
      instrumented = Trace.enabled tracer;
      stat_chunks = Array.make jobs 0;
      stat_run_ns = Array.make jobs 0.;
      stat_wait_ns = Array.make jobs 0.;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun k -> Domain.spawn (make_worker t (k + 1)));
  t

let size t = t.jobs

let check_slot t slot =
  if slot < 0 || slot >= t.jobs then invalid_arg "Pool: slot out of range"

let rng t ~slot =
  check_slot t slot;
  t.rngs.(slot)

let stats t =
  Array.init t.jobs (fun s ->
      {
        chunks = t.stat_chunks.(s);
        run_ns = t.stat_run_ns.(s);
        wait_ns = t.stat_wait_ns.(s);
      })

(* One chunk, with per-slot run-time accounting when instrumented. The
   uninstrumented path is the bare call — one flag test away from the
   pre-observability pool. *)
let run_one t f ~slot ~chunk =
  if not t.instrumented then f ~slot ~chunk
  else begin
    let t0 = Trace.now_ns t.tracer in
    let finish () =
      t.stat_chunks.(slot) <- t.stat_chunks.(slot) + 1;
      t.stat_run_ns.(slot) <-
        t.stat_run_ns.(slot) +. (Trace.now_ns t.tracer -. t0)
    in
    match f ~slot ~chunk with
    | () -> finish ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let run_chunks t ~chunks f =
  if t.stopping then invalid_arg "Pool: pool is shut down";
  if chunks < 0 then invalid_arg "Pool.run_chunks: negative chunk count";
  if chunks = 0 then ()
  else
    Trace.with_span t.tracer "pool.region"
      ~attrs:[ ("chunks", string_of_int chunks) ]
      (fun () ->
        if t.jobs = 1 then
          for c = 0 to chunks - 1 do
            run_one t f ~slot:0 ~chunk:c
          done
        else begin
          let cursor = Atomic.make 0 in
          let completed = Atomic.make 0 in
          let failure = Atomic.make None in
          let body slot =
            let continue_ = ref true in
            while !continue_ do
              let c = Atomic.fetch_and_add cursor 1 in
              if c >= chunks then continue_ := false
              else begin
                (match Atomic.get failure with
                | Some _ -> () (* poisoned: drain the queue without running *)
                | None -> (
                    try run_one t f ~slot ~chunk:c
                    with e ->
                      let bt = Printexc.get_raw_backtrace () in
                      ignore
                        (Atomic.compare_and_set failure None (Some (e, bt)))));
                Atomic.incr completed
              end
            done
          in
          let region = { body; completed; goal = chunks } in
          Mutex.lock t.mutex;
          t.job <- Some region;
          t.epoch <- t.epoch + 1;
          Condition.broadcast t.work_cv;
          Mutex.unlock t.mutex;
          (* The caller is worker slot 0. *)
          body 0;
          Mutex.lock t.mutex;
          while Atomic.get region.completed < region.goal do
            if t.instrumented then begin
              let w0 = Trace.now_ns t.tracer in
              Condition.wait t.done_cv t.mutex;
              t.stat_wait_ns.(0) <-
                t.stat_wait_ns.(0) +. (Trace.now_ns t.tracer -. w0)
            end
            else Condition.wait t.done_cv t.mutex
          done;
          t.job <- None;
          Mutex.unlock t.mutex;
          match Atomic.get failure with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ()
        end)

let default_chunk t n = max 1 (n / (4 * t.jobs))

let chunk_bounds ~chunk ~n c =
  let lo = c * chunk in
  let hi = min n (lo + chunk) - 1 in
  (lo, hi)

let map t ?chunk ~n f =
  if n < 0 then invalid_arg "Pool.map: negative length";
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c when c < 1 -> invalid_arg "Pool.map: chunk must be >= 1"
      | Some c -> c
      | None -> default_chunk t n
    in
    let out = Array.make n None in
    let chunks = (n + chunk - 1) / chunk in
    run_chunks t ~chunks (fun ~slot ~chunk:c ->
        let lo, hi = chunk_bounds ~chunk ~n c in
        for i = lo to hi do
          out.(i) <- Some (f ~slot i)
        done);
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Pool.map: unfilled slot (pool bug)")
      out
  end

let shutdown t =
  if not t.stopping then begin
    Mutex.lock t.mutex;
    t.stopping <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?jobs ?seed ?tracer f =
  let t = create ?jobs ?seed ?tracer () in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      shutdown t;
      Printexc.raise_with_backtrace e bt
