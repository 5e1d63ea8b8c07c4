(* Per-layer self times from a span trace.

   A layer is a span name. Its self time is the span's duration minus the
   durations of its direct children, so the self times of every span under
   a root partition that root's duration. The roots are the benchmark's own
   spans around each public call; their own self time (the call, and the
   tracer's bookkeeping around the library's outermost span) is the
   unattributed remainder. *)

module Trace = Ic_obs.Trace

type row = { layer : string; spans : int; self_ns : float; selfs : float array }

type t = {
  root : string;
  roots : int;
  total_ns : float;  (* sum of the root spans' durations *)
  rows : row list;  (* every layer under a root, largest self time first *)
  unattributed_ns : float;  (* total minus the rows *)
  closure_err : float;
      (* |unattributed - roots' own self time| / total: zero when every
         span's parent is in the trace and children nest inside parents *)
  orphans : int;  (* spans under no recorded parent *)
}

let build ~root spans =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.id s) spans;
  let child_ns = Hashtbl.create 4096 in
  let orphans = ref 0 in
  List.iter
    (fun (s : Trace.span) ->
      if s.parent >= 0 then
        if Hashtbl.mem by_id s.parent then
          Hashtbl.replace child_ns s.parent
            (s.dur_ns
            +. Option.value ~default:0. (Hashtbl.find_opt child_ns s.parent))
        else incr orphans)
    spans;
  (* The root each span hangs under, memoized by id; spans of other roots
     (another domain's, or another phase's) are ignored. *)
  let root_of = Hashtbl.create 4096 in
  let rec find_root (s : Trace.span) =
    match Hashtbl.find_opt root_of s.id with
    | Some r -> r
    | None ->
        let r =
          if s.parent < 0 then if s.name = root then Some s.id else None
          else
            match Hashtbl.find_opt by_id s.parent with
            | Some p -> find_root p
            | None -> None
        in
        Hashtbl.replace root_of s.id r;
        r
  in
  let layers = Hashtbl.create 32 in
  let total = ref 0. and roots = ref 0 and root_self = ref 0. in
  List.iter
    (fun (s : Trace.span) ->
      let self =
        s.dur_ns -. Option.value ~default:0. (Hashtbl.find_opt child_ns s.id)
      in
      if s.parent < 0 && s.name = root then begin
        incr roots;
        total := !total +. s.dur_ns;
        root_self := !root_self +. self
      end
      else if find_root s <> None then begin
        let b =
          match Hashtbl.find_opt layers s.name with
          | Some b -> b
          | None ->
              let b = Stat.buf () in
              Hashtbl.replace layers s.name b;
              b
        in
        Stat.push b self
      end)
    spans;
  let rows =
    Hashtbl.fold
      (fun layer b acc ->
        let selfs = Stat.contents b in
        { layer; spans = Array.length selfs; self_ns = Stat.sum selfs; selfs }
        :: acc)
      layers []
    |> List.sort (fun a b -> Float.compare b.self_ns a.self_ns)
  in
  let attributed = List.fold_left (fun acc r -> acc +. r.self_ns) 0. rows in
  let unattributed_ns = !total -. attributed in
  {
    root;
    roots = !roots;
    total_ns = !total;
    rows;
    unattributed_ns;
    closure_err =
      (if !total > 0. then Float.abs (unattributed_ns -. !root_self) /. !total
       else 0.);
    orphans = !orphans;
  }

let closes t = t.orphans = 0 && t.closure_err < 1e-9 && t.roots > 0

let find t layer = List.find_opt (fun r -> r.layer = layer) t.rows

let self_ns t layer = match find t layer with Some r -> r.self_ns | None -> 0.

let selfs t layer = match find t layer with Some r -> r.selfs | None -> [||]

(* Print one ledger. [per] is the divisor and its label (bins, requests);
   [scale] turns raw nanoseconds into normalized ones. *)
let print ~per:(count, unit) ~scale t =
  let per_op ns = ns *. scale /. 1e3 /. float_of_int (max 1 count) in
  let share ns = if t.total_ns > 0. then 100. *. ns /. t.total_ns else 0. in
  Printf.printf "  %-28s %7s %14s %12s %7s\n" "layer (self time)" "spans"
    ("us/" ^ unit ^ " norm") "raw" "share";
  let line name spans ns =
    Printf.printf "  %-28s %7s %14.3f %12.3f %6.2f%%\n" name spans (per_op ns)
      (ns /. 1e3 /. float_of_int (max 1 count))
      (share ns)
  in
  List.iter (fun r -> line r.layer (string_of_int r.spans) r.self_ns) t.rows;
  line ("unattributed (" ^ t.root ^ " self)") "" t.unattributed_ns;
  line "total" (string_of_int t.roots) t.total_ns;
  Printf.printf "  ledger closes: %s (closure error %.1e, orphan spans %d)\n"
    (if closes t then "yes" else "NO")
    t.closure_err t.orphans
