module Tm = Ic_traffic.Tm
module Trace = Ic_obs.Trace

type spec = { name : string; config : Engine.config; feed : Feed.t }

type supervise = {
  max_restarts : int;
  backoff_base : int;
  backoff_cap : int;
}

let default_supervise = { max_restarts = 3; backoff_base = 1; backoff_cap = 8 }

let validate_supervise s =
  if s.max_restarts < 0 then
    invalid_arg "Shard: max_restarts must be >= 0";
  if s.backoff_base < 1 then invalid_arg "Shard: backoff_base must be >= 1";
  if s.backoff_cap < s.backoff_base then
    invalid_arg "Shard: backoff_cap must be >= backoff_base"

(* All mutable per-shard state lives in this record. During a parallel
   round exactly one domain owns a given shard (Pool.map with chunk:1 over
   shard indices), which is also what keeps the engine's telemetry sink
   single-writer. *)
type shard = {
  name : string;
  config : Engine.config;
  feed : Feed.t;
  mutable engine : Engine.t;
  mutable rev_estimates : Tm.t list;
  mutable rev_levels : Degrade.level list;
  mutable clamped : int;
  mutable consumed : int;
  mutable exhausted : bool;
  (* supervision state (quiescent unless the fleet was built with
     [?supervise]) *)
  sup_tel : Telemetry.t;  (* supervisor events; survives engine restarts *)
  mutable last_snap : Engine.snapshot option;  (* after each good step *)
  mutable pending : (Ic_linalg.Vec.t * bool array) option;
      (* the crashed bin's observation, retried after backoff *)
  mutable backoff : int;  (* budget bins to idle before the retry *)
  mutable attempt : int;  (* failed tries of the pending bin so far *)
  mutable restarts : int;  (* lifetime restarts, never reset *)
  mutable gave_up : bool;
}

type t = {
  pool : Ic_parallel.Pool.t;
  tracer : Trace.t;
  supervise : supervise option;
  chaos : (string -> int -> int -> bool) option;
  shards : shard array;
}

(* Shard names key the line-oriented fleet checkpoint, so any character
   that could split or pad a header line is rejected — including newlines,
   which would desynchronize the embedded line counts. *)
let has_space s =
  String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

let validate_names (specs : spec list) =
  if specs = [] then invalid_arg "Shard.create: empty shard list";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (s : spec) ->
      if s.name = "" || has_space s.name then
        invalid_arg "Shard.create: shard names must be non-empty, no spaces";
      if Hashtbl.mem seen s.name then
        invalid_arg ("Shard.create: duplicate shard name " ^ s.name);
      Hashtbl.add seen s.name ())
    specs

let of_engine (spec : spec) engine =
  {
    name = spec.name;
    config = spec.config;
    feed = spec.feed;
    engine;
    rev_estimates = [];
    rev_levels = [];
    clamped = 0;
    consumed = 0;
    exhausted = false;
    sup_tel = Telemetry.create ();
    last_snap = None;
    pending = None;
    backoff = 0;
    attempt = 0;
    restarts = 0;
    gave_up = false;
  }

let create ?(tracer = Trace.noop) ?supervise ?chaos ~pool specs =
  validate_names specs;
  Option.iter validate_supervise supervise;
  let shards =
    List.map
      (fun (s : spec) -> of_engine s (Engine.create ~tracer s.config))
      specs
  in
  { pool; tracer; supervise; chaos; shards = Array.of_list shards }

let engines t = Array.to_list (Array.map (fun s -> (s.name, s.engine)) t.shards)

(* A crashed engine is restored from its last good snapshot under capped
   exponential backoff (measured in budget bins, so a stalled shard still
   yields its round slots to the others), and the crashed bin's observation
   is retried verbatim. After [max_restarts] restarts the shard gives up —
   a permanently degraded verdict, never a hang or a crash loop. *)
let handle_crash t shard ~loads ~missing ~msg =
  let sup = Option.get t.supervise in
  shard.restarts <- shard.restarts + 1;
  Telemetry.incr shard.sup_tel "supervisor.crashes";
  Trace.with_span t.tracer "shard.restart"
    ~attrs:
      [
        ("shard", shard.name);
        ("attempt", string_of_int shard.attempt);
        ("error", msg);
      ]
    (fun () ->
      if shard.restarts > sup.max_restarts then begin
        shard.gave_up <- true;
        shard.pending <- None;
        Telemetry.incr shard.sup_tel "supervisor.gave_up"
      end
      else begin
        (match shard.last_snap with
        | Some snap ->
            shard.engine <- Engine.restore ~tracer:t.tracer shard.config snap
        | None ->
            (* Crashed before any successful bin: restart cold. *)
            shard.engine <- Engine.create ~tracer:t.tracer shard.config);
        shard.pending <- Some (loads, missing);
        let shift = min 30 (shard.restarts - 1) in
        shard.backoff <-
          min sup.backoff_cap (sup.backoff_base lsl shift);
        Telemetry.incr shard.sup_tel "supervisor.restarts"
      end)

(* Advance one shard by up to [budget] bins. Sequential within the shard;
   called from at most one domain at a time. *)
let advance t shard budget =
  let taken = ref 0 in
  while !taken < budget && not shard.exhausted && not shard.gave_up do
    if shard.backoff > 0 then begin
      shard.backoff <- shard.backoff - 1;
      Telemetry.incr shard.sup_tel "supervisor.backoff.bins";
      incr taken
    end
    else begin
      let obs =
        match shard.pending with
        | Some o ->
            shard.pending <- None;
            Some o
        | None -> Feed.next shard.feed
      in
      match obs with
      | None -> shard.exhausted <- true
      | Some (loads, missing) ->
          let bin = Engine.bins_seen shard.engine in
          let outcome =
            match t.supervise with
            | None -> Ok (Engine.step shard.engine ~loads ~missing)
            | Some _ ->
                let try_no = shard.attempt + 1 in
                let injected =
                  match t.chaos with
                  | Some crash_at -> crash_at shard.name bin try_no
                  | None -> false
                in
                if injected then begin
                  shard.attempt <- try_no;
                  Error "injected crash"
                end
                else begin
                  match Engine.step shard.engine ~loads ~missing with
                  | out -> Ok out
                  | exception e ->
                      shard.attempt <- try_no;
                      Error (Printexc.to_string e)
                end
          in
          (match outcome with
          | Ok out ->
              shard.attempt <- 0;
              shard.rev_estimates <-
                out.Engine.estimate :: shard.rev_estimates;
              shard.rev_levels <- out.Engine.level :: shard.rev_levels;
              shard.clamped <- shard.clamped + out.Engine.clamped;
              shard.consumed <- shard.consumed + 1;
              if t.supervise <> None then
                shard.last_snap <- Some (Engine.snapshot shard.engine)
          | Error msg -> handle_crash t shard ~loads ~missing ~msg);
          incr taken
    end
  done;
  !taken

let results t =
  List.map
    (fun shard ->
      ( shard.name,
        {
          Replay.estimates = Array.of_list (List.rev shard.rev_estimates);
          levels = Array.of_list (List.rev shard.rev_levels);
          clamped = shard.clamped;
        } ))
    (Array.to_list t.shards)

let run ?max_bins ?(round_bins = 32) t =
  if round_bins < 1 then invalid_arg "Shard.run: round_bins must be >= 1";
  let budget shard =
    let cap =
      match max_bins with
      | None -> round_bins
      | Some m -> min round_bins (m - shard.consumed)
    in
    if shard.exhausted || shard.gave_up then 0 else max 0 cap
  in
  let live () = Array.exists (fun s -> budget s > 0) t.shards in
  let round = ref 0 in
  while live () do
    (* One multiplexing round: every shard with budget advances
       concurrently, one pool task per shard. *)
    Trace.with_span t.tracer "shard.round"
      ~attrs:[ ("round", string_of_int !round) ]
      (fun () ->
        ignore
          (Ic_parallel.Pool.map t.pool ~chunk:1 ~n:(Array.length t.shards)
             (fun ~slot:_ i ->
               let shard = t.shards.(i) in
               Trace.with_span t.tracer "shard.advance"
                 ~attrs:[ ("shard", shard.name) ]
                 (fun () -> ignore (advance t shard (budget shard))))));
    incr round
  done;
  results t

let health t =
  let bad =
    Array.to_list t.shards
    |> List.filter (fun s -> s.gave_up)
    |> List.map (fun s -> s.name)
  in
  if bad = [] then `Ok else `Degraded bad

let restarts t =
  Array.to_list (Array.map (fun s -> (s.name, s.restarts)) t.shards)

let sinks t =
  let engines =
    Array.to_list
      (Array.map (fun s -> (s.name, Engine.telemetry s.engine)) t.shards)
  in
  if t.supervise = None then engines
  else
    engines
    @ Array.to_list
        (Array.map (fun s -> (s.name ^ ".supervisor", s.sup_tel)) t.shards)

let merged_counters t = Telemetry.merged (sinks t)

let merged_dump t = Telemetry.merged_dump (sinks t)

(* --- fleet checkpoint ---------------------------------------------------

   One atomic file for the whole fleet:

     ic-runtime-shards v1
     shards <n>
     shard <name> <lines>
     <lines lines of the embedded ic-runtime-checkpoint v1 text>
     ... (n times, in spec order)
     supervisor <name> <restarts> <backoff> <attempt>   (optional, n times)
     end

   Embedding by line count keeps the engine codec opaque here: whatever
   Checkpoint.encode produces is carried verbatim and handed back to
   Checkpoint.decode on restore. Supervisor records postdate v1 and are
   written only by supervised fleets; the loader tolerates their absence
   (state quiescent), preserving every fleet file ever written. *)

let fleet_magic = "ic-runtime-shards v1"

let count_lines text =
  (* encode output is newline-terminated; its line count is the number of
     '\n' characters. *)
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 text

let save ~path t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf fleet_magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "shards %d\n" (Array.length t.shards));
  Array.iter
    (fun shard ->
      let text = Checkpoint.encode (Engine.snapshot shard.engine) in
      Buffer.add_string buf
        (Printf.sprintf "shard %s %d\n" shard.name (count_lines text));
      Buffer.add_string buf text)
    t.shards;
  if t.supervise <> None then
    Array.iter
      (fun shard ->
        Buffer.add_string buf
          (Printf.sprintf "supervisor %s %d %d %d\n" shard.name
             shard.restarts shard.backoff shard.attempt))
      t.shards;
  Buffer.add_string buf "end\n";
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match output_string oc (Buffer.contents buf) with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  Sys.rename tmp path

let load ?(tracer = Trace.noop) ?supervise ?chaos ~path ~pool specs =
  match
    validate_names specs;
    Option.iter validate_supervise supervise
  with
  | exception Invalid_argument msg -> Error ("shards: " ^ msg)
  | () ->
      if not (Sys.file_exists path) then
        Error (Printf.sprintf "shards: no such file %s" path)
      else begin
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        let lines = Array.of_list (String.split_on_char '\n' text) in
        let pos = ref 0 in
        let error = ref None in
        let fail msg = error := Some ("shards: " ^ msg) in
        let next () =
          if !pos >= Array.length lines then begin
            fail "truncated checkpoint";
            ""
          end
          else begin
            let l = lines.(!pos) in
            incr pos;
            l
          end
        in
        let snapshots = Hashtbl.create 8 in
        let sup_states = Hashtbl.create 8 in
        if next () <> fleet_magic then fail "not an ic-runtime-shards file";
        (if !error = None then
           match String.split_on_char ' ' (next ()) with
           | [ "shards"; n ] -> begin
               match int_of_string_opt n with
               | Some n when n >= 0 ->
                   let k = ref 0 in
                   while !error = None && !k < n do
                     (match String.split_on_char ' ' (next ()) with
                     | [ "shard"; name; count ] -> begin
                         match int_of_string_opt count with
                         | Some count
                           when count >= 0
                                && !pos + count <= Array.length lines ->
                             let body =
                               String.concat "\n"
                                 (Array.to_list
                                    (Array.sub lines !pos count))
                               ^ "\n"
                             in
                             pos := !pos + count;
                             if Hashtbl.mem snapshots name then
                               fail ("duplicate shard " ^ name)
                             else begin
                               match Checkpoint.decode body with
                               | Ok snap -> Hashtbl.add snapshots name snap
                               | Error e -> fail (name ^ ": " ^ e)
                             end
                         | _ -> fail "bad shard record"
                       end
                     | _ -> fail "bad shard record");
                     incr k
                   done;
                   (* Optional supervisor records, then the end marker. *)
                   let at_end = ref false in
                   while !error = None && not !at_end do
                     match String.split_on_char ' ' (next ()) with
                     | [ "end" ] -> at_end := true
                     | [ "supervisor"; name; restarts; backoff; attempt ]
                       -> begin
                         match
                           ( int_of_string_opt restarts,
                             int_of_string_opt backoff,
                             int_of_string_opt attempt )
                         with
                         | Some r, Some b, Some a
                           when r >= 0 && b >= 0 && a >= 0 ->
                             if Hashtbl.mem sup_states name then
                               fail ("duplicate supervisor record " ^ name)
                             else Hashtbl.add sup_states name (r, b, a)
                         | _ -> fail "bad supervisor record"
                       end
                     | _ -> fail "missing end marker"
                   done
               | _ -> fail "bad shards record"
             end
           | _ -> fail "bad shards record");
        match !error with
        | Some e -> Error e
        | None ->
            if Hashtbl.length snapshots <> List.length specs then
              Error "shards: checkpoint shard set does not match specs"
            else begin
              let restore_one (spec : spec) =
                match Hashtbl.find_opt snapshots spec.name with
                | None ->
                    Error
                      ("shards: no snapshot for shard " ^ spec.name)
                | Some snap -> begin
                    match Engine.restore ~tracer spec.config snap with
                    | engine ->
                        let shard = of_engine spec engine in
                        (* The engine already consumed [bins_seen] bins of
                           an identical feed before the kill; fast-forward
                           this fresh feed past them. *)
                        Feed.skip spec.feed (Engine.bins_seen engine);
                        shard.consumed <- Engine.bins_seen engine;
                        shard.exhausted <-
                          Feed.position spec.feed >= Feed.length spec.feed;
                        (match supervise with
                        | None -> ()
                        | Some sup ->
                            shard.last_snap <- Some snap;
                            (match Hashtbl.find_opt sup_states spec.name with
                            | None -> ()
                            | Some (restarts, backoff, attempt) ->
                                shard.restarts <- restarts;
                                shard.backoff <- backoff;
                                shard.attempt <- attempt;
                                shard.gave_up <-
                                  restarts > sup.max_restarts;
                                (* A pending observation (killed mid-crash
                                   recovery) was drawn — and counted —
                                   before the kill; re-draw it quietly so
                                   resume totals match the uninterrupted
                                   run. *)
                                if attempt > 0 && not shard.gave_up then
                                  shard.pending <-
                                    Feed.next_quiet spec.feed));
                        Ok shard
                    | exception Invalid_argument msg ->
                        Error ("shards: " ^ spec.name ^ ": " ^ msg)
                  end
              in
              let rec build acc = function
                | [] -> Ok (List.rev acc)
                | spec :: rest -> begin
                    match restore_one spec with
                    | Ok shard -> build (shard :: acc) rest
                    | Error _ as e -> e
                  end
              in
              match build [] specs with
              | Error e -> Error e
              | Ok shards ->
                  Ok
                    {
                      pool;
                      tracer;
                      supervise;
                      chaos;
                      shards = Array.of_list shards;
                    }
            end
      end
