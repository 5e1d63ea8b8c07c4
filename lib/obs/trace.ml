type span = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  start_ns : float;
  dur_ns : float;
  attrs : (string * string) list;
}

type enabled = {
  clock : unit -> float;
  epoch : float;
  capacity : int;
  ring : span option array;
  mutable head : int;  (* next write position *)
  mutable recorded : int;
  lock : Mutex.t;
  last_key : float ref Domain.DLS.key;
      (* per-tracer, per-domain floor for the monotone clamp; per-tracer
         because two tracers have different epochs, so sharing a floor
         would zero out the younger tracer's durations *)
}

type t = enabled option
(* [None] is the no-op tracer: with_span pattern-matches on it before
   touching anything else, so the disabled path is a branch + call. *)

let noop : t = None

(* Span ids are process-global so parent links stay unambiguous even if a
   span tree straddles two tracers (engine tracer vs pool tracer). *)
let next_id = Atomic.make 0

(* Per-domain ancestry: stack of (id, depth) for open spans. Domain-local,
   hence unsynchronized. *)
type dls = { mutable stack : (int * int) list }

let dls_key = Domain.DLS.new_key (fun () -> { stack = [] })

let create ?(capacity = 4096) ?(clock = Clock.now) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  Some
    {
      clock;
      epoch = clock ();
      capacity;
      ring = Array.make capacity None;
      head = 0;
      recorded = 0;
      lock = Mutex.create ();
      last_key = Domain.DLS.new_key (fun () -> ref 0.);
    }

let enabled = function None -> false | Some _ -> true

let now_ns = function
  | None -> 0.
  | Some e ->
      (* Clamped so the clock never runs backwards on a domain: an
         injected clock may step. *)
      let last = Domain.DLS.get e.last_key in
      let t = (e.clock () -. e.epoch) *. 1e9 in
      let t = if t > !last then t else !last in
      last := t;
      t

let record e span =
  Mutex.lock e.lock;
  e.ring.(e.head) <- Some span;
  e.head <- (e.head + 1) mod e.capacity;
  e.recorded <- e.recorded + 1;
  Mutex.unlock e.lock

let with_span t ?(attrs = []) name f =
  match t with
  | None -> f ()
  | Some e ->
      let d = Domain.DLS.get dls_key in
      let parent, depth =
        match d.stack with [] -> (-1, 0) | (id, dep) :: _ -> (id, dep + 1)
      in
      let id = Atomic.fetch_and_add next_id 1 in
      d.stack <- (id, depth) :: d.stack;
      let start_ns = now_ns t in
      let finish () =
        let stop_ns = now_ns t in
        (match d.stack with
        | (top, _) :: rest when top = id -> d.stack <- rest
        | _ ->
            (* Unbalanced pop: an effect handler or re-raised exception
               skipped a frame. Drop everything above us rather than
               corrupt ancestry for the rest of the domain's life. *)
            d.stack <- List.filter (fun (sid, _) -> sid < id) d.stack);
        record e
          { id; parent; depth; name; start_ns; dur_ns = stop_ns -. start_ns; attrs }
      in
      let r =
        try f ()
        with exn ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace exn bt
      in
      finish ();
      r

(* The histogram's clock is read inside the span, so a span's self time
   includes the timer's own cost. *)
let timed ~clock hist f =
  let t0 = clock () in
  let r = f () in
  Metrics.observe hist (Float.max 0. ((clock () -. t0) *. 1e9));
  r

let stage t ?attrs name ~clock hist f =
  match t with
  | None -> timed ~clock hist f
  | Some _ -> with_span t ?attrs name (fun () -> timed ~clock hist f)

let spans = function
  | None -> []
  | Some e ->
      Mutex.lock e.lock;
      let n = min e.recorded e.capacity in
      let first = (e.head - n + e.capacity * 2) mod e.capacity in
      let out = ref [] in
      for i = n - 1 downto 0 do
        match e.ring.((first + i) mod e.capacity) with
        | Some s -> out := s :: !out
        | None -> ()
      done;
      Mutex.unlock e.lock;
      !out

let recorded = function None -> 0 | Some e -> e.recorded
let dropped = function None -> 0 | Some e -> max 0 (e.recorded - e.capacity)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.3f" f

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,\"depth\":%d,\"start_ns\":%s,\"dur_ns\":%s"
           (json_escape s.name) s.id s.parent s.depth (json_float s.start_ns)
           (json_float s.dur_ns));
      (match s.attrs with
      | [] -> ()
      | attrs ->
          Buffer.add_string buf ",\"attrs\":{";
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
            attrs;
          Buffer.add_char buf '}');
      Buffer.add_string buf "}\n")
    (spans t);
  Buffer.contents buf

let export_jsonl ~path t =
  let ss = spans t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl t));
  List.length ss
