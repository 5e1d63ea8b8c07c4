module Vec = Ic_linalg.Vec
module Mat = Ic_linalg.Mat
module Sparse = Ic_linalg.Sparse
module Chol = Ic_linalg.Chol
module Workspace = Ic_linalg.Workspace
module Routing = Ic_topology.Routing
module Trace = Ic_obs.Trace

type solver = Cholesky | Cg

(* Dense G = R W Rt accumulated column-by-column of R: column c with entries
   {(i, v)} contributes w_c * v_i * v_j to G[i][j]. Columns are sparse (a
   few hops plus the two marginal rows), so this is cheap. *)
let weighted_gram routing weights =
  let r = routing.Routing.matrix in
  let m = Sparse.rows r in
  let rt = Sparse.transpose r in
  let g = Mat.create m m in
  for c = 0 to Sparse.rows rt - 1 do
    let w = weights.(c) in
    if w > 0. then begin
      let entries = ref [] in
      Sparse.row_iter rt c (fun i v -> entries := (i, v) :: !entries);
      List.iter
        (fun (i1, v1) ->
          List.iter
            (fun (i2, v2) -> Mat.update g i1 i2 (fun x -> x +. (w *. v1 *. v2)))
            !entries)
        !entries
    end
  done;
  g

let estimate ?(solver = Cholesky) routing ~link_loads ~prior =
  let r = routing.Routing.matrix in
  let m = Sparse.rows r in
  if Array.length link_loads <> m then
    invalid_arg "Tomogravity.estimate: link-load dimension mismatch";
  let n = Ic_traffic.Tm.size prior in
  if n * n <> Sparse.cols r then
    invalid_arg "Tomogravity.estimate: prior does not match routing matrix";
  let x0 = Ic_traffic.Tm.to_vector prior in
  let weights = Vec.clamp_nonneg x0 in
  let rhs = Vec.sub link_loads (Sparse.mulv r x0) in
  let ynorm = Vec.nrm2 link_loads in
  if Vec.nrm2 rhs <= 1e-12 *. Float.max ynorm 1. then prior
  else begin
    let u =
      match solver with
      | Cholesky ->
          let g = weighted_gram routing weights in
          let ch = Chol.factorize_ridge ~ridge:Chol.default_ridge g in
          Chol.solve ch rhs
      | Cg ->
          let apply v =
            Sparse.mulv r (Vec.mul weights (Sparse.mulv_t r v))
          in
          let u, _stats = Ic_linalg.Cg.solve ~tol:Ic_linalg.Cg.default_tol apply rhs in
          u
    in
    let correction = Vec.mul weights (Sparse.mulv_t r u) in
    Ic_traffic.Tm.of_vector_clamped n (Vec.add x0 correction)
  end

(* The batched path. A [plan] freezes everything that depends only on the
   routing matrix: the column-compressed view of R that [plan_weighted_gram]
   walks (no [Sparse.transpose], no intermediate lists), plus a workspace
   whose buffers — Gram matrix, Cholesky factor, and the per-bin vectors —
   are reused across every bin estimated with the plan. All arithmetic
   follows the naive [estimate] operation-for-operation, so the two paths
   agree bit-for-bit. *)

type fastpath_stats = { hits : int; refactorizes : int }

(* The factor cache behind the per-bin fast path. The cached Cholesky
   factor of [R diag(w) Rᵀ + ridge] is fingerprinted by the exact bit
   pattern of [w]: a solve whose weights match reuses it outright (a hit,
   bit-identical to refactorizing by determinism of the factorization), and
   anything else rebuilds Gram and factor from scratch (the pre-cache
   path). The factor buffers are owned by the cache — not workspace keys —
   so [Entropy]'s use of the plan's "gram" buffer cannot clobber a live
   factor. *)
type fcache = {
  mutable fc_valid : bool;
  fc_weights : float array;  (* weights of the cached factor, length n_od *)
  fc_l : Mat.t;
  fc_lt : Mat.t;  (* transpose of fc_l: stride-1 backward substitution *)
  mutable fc_ch : Chol.t option;  (* aliases fc_l once factorized *)
  mutable fc_hits : int;
  mutable fc_refactorizes : int;
}

type plan = {
  routing : Routing.t;
  m : int;  (* rows of R: links plus marginal pseudo-links *)
  n_od : int;  (* columns of R: n^2 OD pairs *)
  col_ptr : int array;  (* length n_od + 1 *)
  col_rows : int array;  (* row indices, ascending within each column *)
  col_vals : float array;
  ws : Workspace.t;
  tracer : Trace.t;
  mutable last_clamp_count : int;
  cache : fcache;
}

let fresh_cache ~m ~n_od =
  {
    fc_valid = false;
    fc_weights = Array.make n_od 0.;
    fc_l = Mat.create m m;
    fc_lt = Mat.create m m;
    fc_ch = None;
    fc_hits = 0;
    fc_refactorizes = 0;
  }

let make_plan ?(tracer = Trace.noop) routing =
  let r = routing.Routing.matrix in
  let m = Sparse.rows r in
  let n_od = Sparse.cols r in
  let col_ptr = Array.make (n_od + 1) 0 in
  for i = 0 to m - 1 do
    Sparse.row_iter r i (fun j _ -> col_ptr.(j + 1) <- col_ptr.(j + 1) + 1)
  done;
  for j = 1 to n_od do
    col_ptr.(j) <- col_ptr.(j) + col_ptr.(j - 1)
  done;
  let nnz = col_ptr.(n_od) in
  let col_rows = Array.make nnz 0 in
  let col_vals = Array.make nnz 0. in
  let next = Array.sub col_ptr 0 n_od in
  for i = 0 to m - 1 do
    Sparse.row_iter r i (fun j v ->
        let k = next.(j) in
        col_rows.(k) <- i;
        col_vals.(k) <- v;
        next.(j) <- k + 1)
  done;
  {
    routing;
    m;
    n_od;
    col_ptr;
    col_rows;
    col_vals;
    ws = Workspace.create ();
    tracer;
    last_clamp_count = 0;
    cache = fresh_cache ~m ~n_od;
  }

let plan_clone plan =
  (* Share the immutable symbolic structure (col_ptr/col_rows/col_vals are
     never written after [make_plan]); give the clone its own workspace,
     factor cache and clamp counter so two domains can estimate
     concurrently. A cold clone cache only costs the first bin per domain
     one refactorization. *)
  {
    plan with
    ws = Workspace.create ();
    last_clamp_count = 0;
    cache = fresh_cache ~m:plan.m ~n_od:plan.n_od;
  }

let plan_last_clamp_count plan = plan.last_clamp_count

let plan_fastpath_stats plan =
  let c = plan.cache in
  { hits = c.fc_hits; refactorizes = c.fc_refactorizes }

let plan_invalidate plan = plan.cache.fc_valid <- false

let plan_weighted_gram plan weights =
  if Array.length weights <> plan.n_od then
    invalid_arg "Tomogravity.plan_weighted_gram: weight dimension mismatch";
  let m = plan.m in
  let g = Workspace.zero_mat plan.ws "gram" m m in
  let gd = g.Mat.data in
  let col_ptr = plan.col_ptr
  and col_rows = plan.col_rows
  and col_vals = plan.col_vals in
  for c = 0 to plan.n_od - 1 do
    let w = Array.unsafe_get weights c in
    if w > 0. then begin
      let lo = Array.unsafe_get col_ptr c in
      let hi = Array.unsafe_get col_ptr (c + 1) - 1 in
      for k1 = lo to hi do
        let base = Array.unsafe_get col_rows k1 * m in
        let wv1 = w *. Array.unsafe_get col_vals k1 in
        for k2 = lo to hi do
          let idx = base + Array.unsafe_get col_rows k2 in
          Array.unsafe_set gd idx
            (Array.unsafe_get gd idx
            +. (wv1 *. Array.unsafe_get col_vals k2))
        done
      done
    end
  done;
  g

(* --- the cached factor -------------------------------------------------- *)

(* Bitwise rather than [=]: a hit must only ever fire on inputs that
   reproduce the cached factor to the last ulp. *)
let same_weights cache w =
  let exception Differ in
  try
    for c = 0 to Array.length w - 1 do
      if
        Int64.bits_of_float (Array.unsafe_get cache.fc_weights c)
        <> Int64.bits_of_float (Array.unsafe_get w c)
      then raise_notrace Differ
    done;
    true
  with Differ -> false

(* Hit or refactorize. The hit is bit-identical to refactorizing (the
   factorization is a deterministic function of the weights and the frozen
   symbolic structure); a refactorization is the pre-cache path plus one
   O(m²) transpose. *)
let ensure_factor plan w =
  let cache = plan.cache in
  match cache.fc_ch with
  | Some ch when cache.fc_valid && same_weights cache w ->
      cache.fc_hits <- cache.fc_hits + 1;
      ch
  | _ ->
      let g =
        Trace.with_span plan.tracer "tomogravity.gram" (fun () ->
            plan_weighted_gram plan w)
      in
      let ch =
        Trace.with_span plan.tracer "tomogravity.factorize" (fun () ->
            Chol.factorize_ridge_into ~ridge:Chol.default_ridge ~l:cache.fc_l
              g)
      in
      Array.blit w 0 cache.fc_weights 0 plan.n_od;
      Chol.transpose_into ch ~lt:cache.fc_lt;
      cache.fc_ch <- Some ch;
      cache.fc_valid <- true;
      cache.fc_refactorizes <- cache.fc_refactorizes + 1;
      ch

let estimate_with_plan ?(solver = Cholesky) ?weights plan ~link_loads ~prior =
  let m = plan.m and n_od = plan.n_od in
  if Array.length link_loads <> m then
    invalid_arg "Tomogravity.estimate: link-load dimension mismatch";
  let n = Ic_traffic.Tm.size prior in
  if n * n <> n_od then
    invalid_arg "Tomogravity.estimate: prior does not match routing matrix";
  let r = plan.routing.Routing.matrix in
  let ws = plan.ws in
  let tracer = plan.tracer in
  let x0 = Workspace.vec ws "x0" n_od in
  Array.blit (Ic_traffic.Tm.unsafe_data prior) 0 x0 0 n_od;
  let w =
    match weights with
    | Some w ->
        if Array.length w <> n_od then
          invalid_arg "Tomogravity.estimate: weights dimension mismatch";
        w
    | None ->
        let w = Workspace.vec ws "weights" n_od in
        for s = 0 to n_od - 1 do
          let x = Array.unsafe_get x0 s in
          Array.unsafe_set w s (if x < 0. then 0. else x)
        done;
        w
  in
  let rhs = Workspace.vec ws "rhs" m in
  Sparse.mulv_into r x0 ~into:rhs;
  for i = 0 to m - 1 do
    Array.unsafe_set rhs i
      (Array.unsafe_get link_loads i -. Array.unsafe_get rhs i)
  done;
  let ynorm = Vec.nrm2 link_loads in
  if Vec.nrm2 rhs <= 1e-12 *. Float.max ynorm 1. then begin
    (* The prior already satisfies the link constraints: [estimate]'s
       early exit. *)
    plan.last_clamp_count <- 0;
    prior
  end
  else begin
    let u =
      match solver with
      | Cholesky ->
          let ch = ensure_factor plan w in
          Trace.with_span tracer "tomogravity.solve" (fun () ->
              Chol.solve_into_t ch ~lt:plan.cache.fc_lt rhs);
          rhs
      | Cg ->
          Trace.with_span tracer "tomogravity.solve" (fun () ->
              let apply v = Sparse.mulv r (Vec.mul w (Sparse.mulv_t r v)) in
              let u, _stats = Ic_linalg.Cg.solve apply (Vec.copy rhs) in
              u)
    in
    (* x = max(0, x0 + w∘(Rᵀu)), one OD pair at a time. Its entry of Rᵀu
       is gathered down the pair's column of the plan's CSC view, rows
       ascending and zero entries of u skipped: the terms and order of
       [Sparse.mulv_t_into]'s scatter. The CSC view is the plan's own, [u]
       has rhs's length m, and the checks above cover the rest, so the
       gather reads unchecked. *)
    Trace.with_span tracer "tomogravity.clamp" (fun () ->
        let out = Ic_traffic.Tm.create n in
        let od = Ic_traffic.Tm.unsafe_data out in
        let col_ptr = plan.col_ptr
        and col_rows = plan.col_rows
        and col_vals = plan.col_vals in
        let clamped = ref 0 in
        for s = 0 to n_od - 1 do
          let acc = ref 0. in
          let hi = Array.unsafe_get col_ptr (s + 1) - 1 in
          for k = Array.unsafe_get col_ptr s to hi do
            let ui = Array.unsafe_get u (Array.unsafe_get col_rows k) in
            if ui <> 0. then acc := !acc +. (Array.unsafe_get col_vals k *. ui)
          done;
          let v = Array.unsafe_get x0 s +. (Array.unsafe_get w s *. !acc) in
          if v < 0. then incr clamped
          else Array.unsafe_set od s v
        done;
        plan.last_clamp_count <- !clamped;
        out)
  end

let residual routing ~link_loads tm =
  let r = routing.Routing.matrix in
  let y = Sparse.mulv r (Ic_traffic.Tm.to_vector tm) in
  let ynorm = Vec.nrm2 link_loads in
  if ynorm <= 0. then invalid_arg "Tomogravity.residual: zero link loads";
  Vec.nrm2_diff y link_loads /. ynorm
