(* perfbench: the repository's end-to-end benchmark.

   perfbench --workload <stream-ic|stream-tomogravity|serve-mix|all>
             --seed <n> --seconds <s> --trace <0|1>

   Generates a workload from the seed, runs it through the public APIs of
   Ic_runtime.Engine and Ic_serve, checks every answer, and prints the
   end-to-end metrics by name and unit. With --trace 1 it also runs a traced
   pass and prints the per-layer ledger. The last line of standard output
   is one JSON object; the exit code is 0 only when every check passed.
   See perfbench/README.md. *)

let workloads = [ "stream-ic"; "stream-tomogravity"; "serve-mix" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checkout's commit when it is a git work tree. *)
let git_commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if not (String.starts_with ~prefix:"ref: " head) then head
    else begin
      let r = String.sub head 5 (String.length head - 5) in
      try String.trim (read_file (Filename.concat ".git" r))
      with Sys_error _ ->
        let line =
          List.find
            (fun l -> String.ends_with ~suffix:(" " ^ r) l)
            (String.split_on_char '\n' (read_file ".git/packed-refs"))
        in
        String.sub line 0 (String.index line ' ')
    end
  with _ -> "unknown (not a git work tree)"

(* A digest of the library and benchmark sources, naming the code when the
   checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
        Array.sort String.compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if
                 Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
                 || e = "dune"
               then [ p ]
               else [])
  in
  let paths = files "lib" @ files "perfbench" in
  Digest.to_hex
    (Digest.string
       (String.concat "\000" (List.concat_map (fun p -> [ p; read_file p ]) paths)))

let run_one ~workload ~seed ~seconds ~trace =
  match workload with
  | "stream-ic" ->
      Stream_wl.run ~name:workload ~estimator:"ic" ~seed ~seconds ~trace
  | "stream-tomogravity" ->
      Stream_wl.run ~name:workload ~estimator:"tomogravity" ~seed ~seconds
        ~trace
  | "serve-mix" -> Serve_wl.run ~seed ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)

let usage () =
  prerr_endline
    "usage: perfbench --workload <stream-ic|stream-tomogravity|serve-mix|all> \
     --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. in
  let trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if w <> "all" && not (List.mem w workloads) then usage ();
        workload := Some w;
        parse rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some s -> seed := s | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  Printf.printf
    "perfbench: workload %s, seed %d, seconds %g, trace %d\n\
     host: nproc %d, OCaml %s, commit %s, source digest %s\n%!"
    workload !seed !seconds
    (if !trace then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_commit ()) (source_digest ());
  let selected = if workload = "all" then workloads else [ workload ] in
  let results =
    List.map
      (fun w ->
        let r = run_one ~workload:w ~seed:!seed ~seconds:!seconds ~trace:!trace in
        let e2e = Out.complete Out.e2e_names r.Out.e2e in
        let layers = Out.complete Out.layer_names r.layers in
        (* A value that is not a number is a failed measurement. *)
        let bad =
          List.length
            (List.filter
               (fun x -> not (Float.is_finite x.Out.value))
               (e2e @ layers))
        in
        Printf.printf "%s: %d failed of %d attempted\n\n%!" w (r.failed + bad)
          r.attempted;
        (w, r.attempted, r.failed + bad, if !trace then layers else e2e))
      selected
  in
  let attempted = List.fold_left (fun a (_, n, _, _) -> a + n) 0 results in
  let failed = List.fold_left (fun a (_, _, f, _) -> a + f) 0 results in
  let metrics =
    match results with
    | [ (_, _, _, ms) ] -> ms
    | _ ->
        List.concat_map
          (fun (w, _, _, ms) ->
            List.map (fun x -> { x with Out.name = w ^ "/" ^ x.Out.name }) ms)
          results
  in
  print_endline (Out.json ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)
