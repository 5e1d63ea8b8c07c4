let link_all g links names =
  let idx name =
    match Graph.index_of_name g name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Topologies: unknown PoP %s" name)
  in
  ignore names;
  List.fold_left (fun g (u, v) -> Graph.add_link g (idx u) (idx v)) g links

let geant_names =
  [| "at"; "be"; "ch"; "cz"; "de"; "dk"; "es"; "fr"; "gr"; "hr"; "hu"; "ie";
     "il"; "it"; "lu"; "nl"; "no"; "pl"; "pt"; "se"; "si"; "uk" |]

let geant_links =
  [ ("de", "at"); ("de", "ch"); ("de", "cz"); ("de", "dk"); ("de", "fr");
    ("de", "nl"); ("de", "pl"); ("de", "se"); ("de", "gr"); ("at", "cz");
    ("at", "hu"); ("at", "si"); ("at", "ch"); ("be", "nl"); ("be", "fr");
    ("ch", "fr"); ("ch", "it"); ("cz", "pl"); ("dk", "se"); ("dk", "no");
    ("es", "fr"); ("es", "pt"); ("es", "it"); ("fr", "uk"); ("fr", "lu");
    ("gr", "it"); ("hr", "si"); ("hr", "hu"); ("hu", "cz"); ("ie", "uk");
    ("il", "it"); ("il", "nl"); ("it", "fr"); ("lu", "de"); ("nl", "uk");
    ("no", "se"); ("pl", "se"); ("pt", "uk"); ("se", "uk") ]

let geant_like () =
  let g = Graph.create ~names:geant_names in
  link_all g geant_links geant_names

let totem_names =
  [| "at"; "be"; "ch"; "cz"; "de1"; "de2"; "dk"; "es"; "fr"; "gr"; "hr"; "hu";
     "ie"; "il"; "it"; "lu"; "nl"; "no"; "pl"; "pt"; "se"; "si"; "uk" |]

let totem_links =
  (* de1 takes over de's western links, de2 the eastern; they interconnect. *)
  [ ("de1", "de2"); ("de1", "ch"); ("de1", "fr"); ("de1", "nl"); ("de1", "lu");
    ("de1", "dk"); ("de2", "at"); ("de2", "cz"); ("de2", "pl"); ("de2", "se");
    ("de2", "gr"); ("at", "cz"); ("at", "hu"); ("at", "si"); ("at", "ch");
    ("be", "nl"); ("be", "fr"); ("ch", "fr"); ("ch", "it"); ("cz", "pl");
    ("dk", "se"); ("dk", "no"); ("es", "fr"); ("es", "pt"); ("es", "it");
    ("fr", "uk"); ("fr", "lu"); ("gr", "it"); ("hr", "si"); ("hr", "hu");
    ("hu", "cz"); ("ie", "uk"); ("il", "it"); ("il", "nl"); ("it", "fr");
    ("nl", "uk"); ("no", "se"); ("pl", "se"); ("pt", "uk"); ("se", "uk") ]

let totem_like () =
  let g = Graph.create ~names:totem_names in
  link_all g totem_links totem_names

let abilene_names =
  [| "STTL"; "SNVA"; "LOSA"; "DNVR"; "KSCY"; "HSTN"; "IPLS"; "ATLA"; "CHIN";
     "CLEV"; "NYCM"; "WASH" |]

let abilene_links =
  [ ("STTL", "SNVA"); ("STTL", "DNVR"); ("SNVA", "LOSA"); ("SNVA", "DNVR");
    ("LOSA", "HSTN"); ("DNVR", "KSCY"); ("KSCY", "HSTN"); ("KSCY", "IPLS");
    ("HSTN", "ATLA"); ("IPLS", "CHIN"); ("IPLS", "CLEV"); ("IPLS", "ATLA");
    ("ATLA", "WASH"); ("CHIN", "NYCM"); ("CLEV", "NYCM"); ("NYCM", "WASH") ]

let abilene_like () =
  let g = Graph.create ~names:abilene_names in
  link_all g abilene_links abilene_names

let star ~n =
  if n < 2 then invalid_arg "Topologies.star: need at least 2 nodes";
  let names = Array.init n (fun i -> if i = 0 then "hub" else Printf.sprintf "spoke%d" i) in
  let g = Graph.create ~names in
  let rec attach g i = if i >= n then g else attach (Graph.add_link g 0 i) (i + 1) in
  attach g 1
