module Routing = Ic_topology.Routing
module Graph = Ic_topology.Graph
module Series = Ic_traffic.Series
module Tm = Ic_traffic.Tm
module Vec = Ic_linalg.Vec

(* ------------------------------------------------------------------ *)
(* Per-bin context                                                     *)
(* ------------------------------------------------------------------ *)

type ipf_tally = { mutable iterations : int; mutable unconverged : int }

type ctx = {
  routing : Routing.t;
  plan : Tomogravity.plan;
  link_loads : Vec.t;
  ingress : Vec.t;
  egress : Vec.t;
  bin : int;
  weights : Vec.t option;
  ipf : ipf_tally;
}

let make_ctx ~routing ~plan ~link_loads ?(bin = 0) () =
  if not routing.Routing.with_marginals then
    invalid_arg "Estimator.make_ctx: routing must include marginal rows";
  if Array.length link_loads <> Routing.row_count routing then
    invalid_arg "Estimator.make_ctx: link-load length mismatch";
  let n = Graph.node_count routing.Routing.graph in
  let ingress =
    Array.init n (fun i -> link_loads.(Routing.ingress_row routing i))
  in
  let egress =
    Array.init n (fun j -> link_loads.(Routing.egress_row routing j))
  in
  let ipf = { iterations = 0; unconverged = 0 } in
  { routing; plan; link_loads; ingress; egress; bin; weights = None; ipf }

(* ------------------------------------------------------------------ *)
(* Serializable per-estimator state                                    *)
(* ------------------------------------------------------------------ *)

type state = {
  owner : string;
  slabs : (string * float array) list;
}

let state_create ~owner slabs = { owner; slabs }
let state_owner s = s.owner
let state_slabs s = s.slabs

let slab s name =
  match List.assoc_opt name s.slabs with
  | Some a -> a
  | None ->
      invalid_arg
        (Printf.sprintf "Estimator.slab: state %S has no slab %S" s.owner name)

let state_copy s =
  { owner = s.owner; slabs = List.map (fun (k, v) -> (k, Array.copy v)) s.slabs }

let state_equal a b =
  String.equal a.owner b.owner
  && List.length a.slabs = List.length b.slabs
  && List.for_all2
       (fun (ka, va) (kb, vb) ->
         String.equal ka kb
         && Array.length va = Array.length vb
         && Array.for_all2
              (fun x y ->
                Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              va vb)
       a.slabs b.slabs

(* ------------------------------------------------------------------ *)
(* The estimator interface                                             *)
(* ------------------------------------------------------------------ *)

module type S = sig
  val name : string
  val doc : string
  val calibrate : routing:Routing.t -> train:Series.t option -> state
  val prior : state -> ctx -> Tm.t
  val refine : state -> ctx -> prior:Tm.t -> Tm.t * int
  val project : state -> ctx -> Tm.t -> Tm.t
  val observe : state -> ctx -> estimate:Tm.t -> unit
end

let estimate_bin (module E : S) state ctx =
  let p = E.prior state ctx in
  let refined, clamped = E.refine state ctx ~prior:p in
  (E.project state ctx refined, clamped)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : (string, (module S)) Hashtbl.t = Hashtbl.create 16

let register ((module E : S) as est) =
  if Hashtbl.mem registry E.name then
    invalid_arg ("Estimator.register: duplicate estimator " ^ E.name);
  Hashtbl.replace registry E.name est

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry []
  |> List.sort String.compare

let mem name = Hashtbl.mem registry name
let find name = Hashtbl.find_opt registry name

let find_exn name =
  match find name with
  | Some est -> est
  | None ->
      invalid_arg
        (Printf.sprintf "unknown estimator %s (registered: %s)" name
           (String.concat ", " (names ())))

let doc name =
  match find name with
  | Some (module E) -> Some E.doc
  | None -> None

(* ------------------------------------------------------------------ *)
(* Shared stage building blocks                                        *)
(* ------------------------------------------------------------------ *)

(* The generalized-gravity prior from the bin's measured marginals. An
   all-idle bin (every marginal zero) has no gravity decomposition; the
   zero matrix is the only estimate consistent with the link counts, and
   every downstream stage (tomogravity with zero weights, IPF with zero
   targets) preserves it. *)
let gravity_prior ctx =
  let n = Array.length ctx.ingress in
  if Vec.sum ctx.ingress <= 0. || Vec.sum ctx.egress <= 0. then Tm.create n
  else Ic_gravity.Gravity.from_marginals ~ingress:ctx.ingress ~egress:ctx.egress

(* Step-3 projection onto the measured marginals, exactly as the classic
   pipeline applies it (including the all-idle guard). Every run lands in
   the ctx's tally. *)
let ipf_project ctx tm =
  if Vec.sum ctx.ingress <= 0. then tm
  else begin
    let o = Ipf.fit tm ~row_targets:ctx.ingress ~col_targets:ctx.egress in
    ctx.ipf.iterations <- ctx.ipf.iterations + o.Ipf.iterations;
    if not o.Ipf.converged then ctx.ipf.unconverged <- ctx.ipf.unconverged + 1;
    o.Ipf.tm
  end

let tomogravity_refine ctx ~prior =
  let tm =
    Tomogravity.estimate_with_plan ?weights:ctx.weights ctx.plan
      ~link_loads:ctx.link_loads ~prior
  in
  (tm, Tomogravity.plan_last_clamp_count ctx.plan)

let no_observe _state _ctx ~estimate:_ = ()

(* ------------------------------------------------------------------ *)
(* Built-in families                                                   *)
(* ------------------------------------------------------------------ *)

module Gravity_est = struct
  let name = "gravity"

  let doc =
    "generalized gravity model from the measured marginals, projected \
     exactly onto them with IPF (the paper's baseline; no link information)"

  let calibrate ~routing:_ ~train:_ = state_create ~owner:name []
  let prior _state ctx = gravity_prior ctx
  let refine _state _ctx ~prior = (prior, 0)
  let project _state ctx tm = ipf_project ctx tm
  let observe = no_observe
end

module Tomogravity_est = struct
  let name = "tomogravity"

  let doc =
    "gravity prior refined once against the link loads in prior-weighted \
     least squares (Zhang et al.), then IPF onto the marginals"

  let calibrate ~routing:_ ~train:_ = state_create ~owner:name []
  let prior _state ctx = gravity_prior ctx
  let refine _state ctx ~prior = tomogravity_refine ctx ~prior
  let project _state ctx tm = ipf_project ctx tm
  let observe = no_observe
end

module Tomogravity_iterative = struct
  let name = "tomogravity-iterative"

  let doc =
    "iterative tomogravity (Fang et al.): alternate least-squares \
     refinement against the link residuals with a proportional refit onto \
     the generalized-gravity marginals, re-deriving the prior (and its \
     least-squares geometry) from the previous sweep's estimate"

  let sweeps = 3

  let calibrate ~routing:_ ~train:_ =
    state_create ~owner:name [ ("sweeps", [| float_of_int sweeps |]) ]

  let prior _state ctx = gravity_prior ctx

  let refine state ctx ~prior =
    let sweeps =
      match slab state "sweeps" with
      | [| s |] when s >= 1. -> int_of_float s
      | _ -> 1
    in
    let clamped = ref 0 in
    let x = ref prior in
    (* The host's frozen weights never apply: each sweep's geometry is the
       point of the method. *)
    let sweep_ctx = { ctx with weights = None } in
    for _ = 1 to sweeps do
      (* Refine the current prior against the link residuals — the weights
         W = diag x0 come from the current iterate, so each sweep solves in
         the geometry of the previous sweep's generalized-gravity refit... *)
      let refined, c = tomogravity_refine sweep_ctx ~prior:!x in
      clamped := !clamped + c;
      (* ... then proportionally refit the refined estimate back onto the
         measured marginals, which is how the next sweep's prior regains
         the generalized-gravity structure. *)
      x := ipf_project ctx refined
    done;
    (!x, !clamped)

  (* Each sweep already ends on the marginal refit, so the projection
     stage has nothing left to do. *)
  let project _state _ctx tm = tm
  let observe = no_observe
end

module Integer_tomography = struct
  let name = "integer-tomography"

  let doc =
    "integer-valued tomography (Hazelton): moment-matched mean connection \
     size from the bin-total increments, Poisson-geometry least squares, \
     and a largest-remainder rounding of the IPF projection onto integer \
     multiples of the matched unit"

  (* Moment matching: modelling each OD count as a sum of i.i.d.
     connections of mean size s, consecutive bin-total increments satisfy
     Var(T_t - T_{t-1}) ~ 2 s E[T]; differencing strips the diurnal trend
     that would otherwise dominate the raw variance. The running moments
     (count, total sum, sum of squared increments, last total) are the
     estimator's whole state, so the unit rides checkpoints and keeps
     adapting in streaming mode while staying frozen across bins in batch
     mode. *)
  let unit_of_moments m =
    let count = m.(0) and sum_t = m.(1) and m2_delta = m.(2) in
    if count < 2. then 0.
    else
      let mean_t = sum_t /. count in
      if mean_t <= 0. then 0.
      else
        let s = m2_delta /. (2. *. mean_t *. (count -. 1.)) in
        (* Resolution floor: when the increments are dominated by diurnal
           swings rather than connection-level noise (subsampled or
           non-contiguous calibration bins), the raw moment estimate
           inflates by orders of magnitude and quantization would collapse
           a bin to a handful of quanta. Capping the unit so an average bin
           carries at least 10^4 of them bounds the rounding error at the
           ~1% level while leaving genuinely count-scale data untouched. *)
        Float.min s (mean_t /. 1e4)

  let update_moments m total =
    if Float.is_finite total && total >= 0. then begin
      if m.(0) >= 1. then begin
        let d = total -. m.(3) in
        m.(2) <- m.(2) +. (d *. d)
      end;
      m.(0) <- m.(0) +. 1.;
      m.(1) <- m.(1) +. total;
      m.(3) <- total
    end

  let calibrate ~routing:_ ~train =
    let m = [| 0.; 0.; 0.; 0. |] in
    (match train with
    | None -> ()
    | Some series ->
        for k = 0 to Series.length series - 1 do
          update_moments m (Tm.total (Series.tm series k))
        done);
    state_create ~owner:name [ ("moments", m); ("unit", [| unit_of_moments m |]) ]

  let prior _state ctx = gravity_prior ctx
  let refine _state ctx ~prior = tomogravity_refine ctx ~prior

  (* Largest-remainder rounding onto integer multiples of [unit],
     preserving the rounded total: floor every entry, then hand the
     leftover units to the largest fractional remainders (ties broken by
     index, so the result is a pure function of the input). With no
     matched unit yet (fewer than two observed bins) the estimate stays
     continuous. *)
  let quantize ~unit tm =
    if unit <= 0. || not (Float.is_finite unit) then tm
    else begin
      let total = Tm.total tm in
      (* The 2^52 bound keeps every per-entry count exactly representable;
         past it the rounding would be a no-op relative to the totals
         anyway, so the estimate is left continuous. *)
      if total <= 0. || not (total /. unit < 0x1p52) then tm
      else begin
        let out = Tm.copy tm in
        let data = Tm.unsafe_data out in
        let len = Array.length data in
        let target = Float.round (total /. unit) in
        let counts = Array.make len 0. in
        let order = Array.init len (fun i -> i) in
        let floors = ref 0. in
        for i = 0 to len - 1 do
          let c = Float.floor (data.(i) /. unit) in
          counts.(i) <- c;
          floors := !floors +. c
        done;
        let deficit =
          int_of_float (Float.max 0. (Float.min (target -. !floors) (float_of_int len)))
        in
        Array.sort
          (fun a b ->
            let ra = (data.(a) /. unit) -. counts.(a)
            and rb = (data.(b) /. unit) -. counts.(b) in
            if ra = rb then compare a b else compare rb ra)
          order;
        for k = 0 to deficit - 1 do
          let i = order.(k) in
          counts.(i) <- counts.(i) +. 1.
        done;
        for i = 0 to len - 1 do
          data.(i) <- counts.(i) *. unit
        done;
        out
      end
    end

  let project state ctx tm =
    let unit = (slab state "unit").(0) in
    quantize ~unit (ipf_project ctx tm)

  let observe state _ctx ~estimate =
    let m = slab state "moments" in
    update_moments m (Tm.total estimate);
    (slab state "unit").(0) <- unit_of_moments m
end

module Ic_est = struct
  let name = "ic"

  let doc =
    "the paper's independent-connection estimator: stable-fP parameters \
     fitted on the training split, per-bin activities recovered from the \
     measured marginals (Equations 7-9), tomogravity refinement, IPF"

  let calibrate ~routing ~train =
    match train with
    | None ->
        invalid_arg
          "estimator ic requires a training series (batch calibration); the \
           streaming engine uses its native self-calibrating ic path instead"
    | Some series ->
        let n = Graph.node_count routing.Routing.graph in
        if Series.size series <> n then
          invalid_arg "estimator ic: training series does not match routing";
        let fitted = Ic_core.Fit.fit_stable_fp series in
        let p = fitted.Ic_core.Fit.params in
        state_create ~owner:name
          [
            ("f", [| p.Ic_core.Params.f |]);
            ("preference", Array.copy p.Ic_core.Params.preference);
          ]

  let prior state ctx =
    let f = (slab state "f").(0) in
    let preference = slab state "preference" in
    if Vec.sum ctx.ingress <= 0. then gravity_prior ctx
    else
      let activity =
        Ic_core.Estimate_a.activities ~f ~preference ~ingress:ctx.ingress
          ~egress:ctx.egress
      in
      Ic_core.Model.simplified ~f ~activity ~preference

  let refine _state ctx ~prior = tomogravity_refine ctx ~prior
  let project _state ctx tm = ipf_project ctx tm
  let observe = no_observe
end

let () =
  List.iter register
    [
      (module Gravity_est : S);
      (module Tomogravity_est : S);
      (module Tomogravity_iterative : S);
      (module Integer_tomography : S);
      (module Ic_est : S);
    ]
