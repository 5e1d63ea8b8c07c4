type dataset_id = Geant | Totem

type t = {
  stride : int;
  out_dir : string option;
  mutable geant : Ic_datasets.Dataset.t option;
  mutable totem : Ic_datasets.Dataset.t option;
  mutable abilene : Ic_datasets.Abilene.t option;
  fit_cache :
    (dataset_id * int, Ic_core.Params.stable_fp Ic_core.Fit.fitted) Hashtbl.t;
}

(* Weeks generated per dataset, as in the paper. *)
let weeks_geant = 3

let weeks_totem = 7

let create ?(stride = 1) ?out_dir () =
  if stride < 1 then invalid_arg "Context.create: stride must be >= 1";
  {
    stride;
    out_dir;
    geant = None;
    totem = None;
    abilene = None;
    fit_cache = Hashtbl.create 16;
  }

let stride t = t.stride

let out_dir t = t.out_dir

let geant t =
  match t.geant with
  | Some d -> d
  | None ->
      let d = Ic_datasets.Geant.generate ~weeks:weeks_geant () in
      t.geant <- Some d;
      d

let totem t =
  match t.totem with
  | Some d -> d
  | None ->
      let d = Ic_datasets.Totem.generate ~weeks:weeks_totem () in
      t.totem <- Some d;
      d

let dataset t = function Geant -> geant t | Totem -> totem t

let abilene t =
  match t.abilene with
  | Some a -> a
  | None ->
      let a = Ic_datasets.Abilene.generate () in
      t.abilene <- Some a;
      a

let dataset_name = function Geant -> "geant" | Totem -> "totem"

let week_series t id w =
  let ds = dataset t id in
  let week = Ic_datasets.Dataset.week ds w in
  if t.stride = 1 then week
  else begin
    (* at least one bin even under an absurd stride *)
    let len = Stdlib.max 1 (Ic_traffic.Series.length week / t.stride) in
    Ic_traffic.Series.make week.Ic_traffic.Series.binning
      (Array.init len (fun k ->
           Ic_traffic.Series.tm week
             (Stdlib.min (k * t.stride) (Ic_traffic.Series.length week - 1))))
  end

let weekly_fit t id w =
  match Hashtbl.find_opt t.fit_cache (id, w) with
  | Some fit -> fit
  | None ->
      let fit = Ic_core.Fit.fit_stable_fp (week_series t id w) in
      Hashtbl.replace t.fit_cache (id, w) fit;
      fit
