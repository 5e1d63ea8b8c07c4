module Metrics = Ic_obs.Metrics

type t = {
  clock : unit -> float;
  registry : Metrics.t;
  stages : (string, Metrics.histogram) Hashtbl.t;
      (* the stage histograms by stage name, so recording a stage skips
         the registry's lookup under its lock *)
}

let create ?(clock = Ic_obs.Clock.now) ?registry () =
  let registry =
    match registry with Some r -> r | None -> Metrics.create ()
  in
  { clock; registry; stages = Hashtbl.create 16 }

let registry t = t.registry
let clock t = t.clock

let incr t name = Metrics.inc (Metrics.counter t.registry name)
let add t name v = Metrics.add (Metrics.counter t.registry name) v

let count t name =
  (* Must not create the counter: reads don't invent series. *)
  match Metrics.find_counter t.registry name with
  | Some c -> Metrics.counter_value c
  | None -> 0

let counters t = Metrics.counters t.registry

let set_counters t entries =
  List.iter
    (fun (name, _) -> Metrics.remove_counter t.registry name)
    (Metrics.counters t.registry);
  List.iter
    (fun (name, v) -> Metrics.set_counter (Metrics.counter t.registry name) v)
    entries

let stage ?help t name =
  match Hashtbl.find_opt t.stages name with
  | Some h -> h
  | None ->
      let help =
        match help with
        | Some h -> h
        | None -> Printf.sprintf "wall-clock duration of the %s stage" name
      in
      let h = Metrics.histogram t.registry ~help (name ^ "_duration_ns") in
      Hashtbl.add t.stages name h;
      h

let merged sinks =
  let totals = Hashtbl.create 64 in
  List.iter
    (fun (_, t) ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt totals name with
          | Some r -> r := !r + v
          | None -> Hashtbl.add totals name (ref v))
        (counters t))
    sinks;
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) totals []
  |> List.sort compare

let add_counter_lines buf entries =
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-32s %d\n" name v))
    entries

let merged_dump sinks =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "merged counters:\n";
  add_counter_lines buf (merged sinks);
  List.iter
    (fun (label, t) ->
      Buffer.add_string buf (Printf.sprintf "shard %s:\n" label);
      add_counter_lines buf (counters t))
    (List.sort (fun (a, _) (b, _) -> compare a b) sinks);
  Buffer.contents buf

let dump t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "counters:\n";
  add_counter_lines buf (counters t);
  Buffer.contents buf
