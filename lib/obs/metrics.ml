type counter = { c_name : string; c_help : string; mutable c_value : int; c_lock : Mutex.t }
type gauge = { g_name : string; g_help : string; mutable g_value : float; g_lock : Mutex.t }

type histogram = {
  h_name : string;
  h_help : string;
  bounds : float array;  (* strictly increasing upper bounds; +Inf implicit *)
  counts : int array;  (* per-bucket (non-cumulative); counts.(len) = +Inf bucket *)
  mutable sum : float;
  mutable count : int;
  h_lock : Mutex.t;
}

type t = {
  mutable cs : counter list;  (* newest first; sorted on read *)
  mutable gs : gauge list;
  mutable hs : histogram list;
  lock : Mutex.t;
}

let create () = { cs = []; gs = []; hs = []; lock = Mutex.create () }

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Counters *)

let counter t ?(help = "") name =
  locked t.lock (fun () ->
      match List.find_opt (fun c -> c.c_name = name) t.cs with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_help = help; c_value = 0; c_lock = Mutex.create () } in
          t.cs <- c :: t.cs;
          c)

let inc c = locked c.c_lock (fun () -> c.c_value <- c.c_value + 1)

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotone";
  locked c.c_lock (fun () -> c.c_value <- c.c_value + n)

let set_counter c v = locked c.c_lock (fun () -> c.c_value <- v)
let counter_value c = locked c.c_lock (fun () -> c.c_value)

let find_counter t name =
  locked t.lock (fun () -> List.find_opt (fun c -> c.c_name = name) t.cs)

let counters t =
  locked t.lock (fun () ->
      t.cs
      |> List.map (fun c -> (c.c_name, counter_value c))
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let remove_counter t name =
  locked t.lock (fun () -> t.cs <- List.filter (fun c -> c.c_name <> name) t.cs)

(* Gauges *)

let gauge t ?(help = "") name =
  locked t.lock (fun () ->
      match List.find_opt (fun g -> g.g_name = name) t.gs with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_help = help; g_value = 0.; g_lock = Mutex.create () } in
          t.gs <- g :: t.gs;
          g)

let set g v = locked g.g_lock (fun () -> g.g_value <- v)
let gauge_value g = locked g.g_lock (fun () -> g.g_value)

let gauges t =
  locked t.lock (fun () ->
      t.gs
      |> List.map (fun g -> (g.g_name, gauge_value g))
      |> List.sort (fun (a, _) (b, _) -> compare a b))

(* Histograms *)

let default_duration_buckets = Array.init 63 (fun i -> Float.ldexp 1. i)

let validate_buckets b =
  if Array.length b = 0 then invalid_arg "Metrics.histogram: empty buckets";
  for i = 1 to Array.length b - 1 do
    if not (b.(i) > b.(i - 1)) then
      invalid_arg "Metrics.histogram: buckets must be strictly increasing"
  done

let histogram t ?(help = "") ?(buckets = default_duration_buckets) name =
  locked t.lock (fun () ->
      match List.find_opt (fun h -> h.h_name = name) t.hs with
      | Some h -> h
      | None ->
          validate_buckets buckets;
          let bounds = Array.copy buckets in
          let h =
            {
              h_name = name;
              h_help = help;
              bounds;
              counts = Array.make (Array.length bounds + 1) 0;
              sum = 0.;
              count = 0;
              h_lock = Mutex.create ();
            }
          in
          t.hs <- h :: t.hs;
          h)

let observe h v =
  locked h.h_lock (fun () ->
      (* Binary search for the first bound >= v; +Inf bucket otherwise. *)
      let n = Array.length h.bounds in
      let idx =
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if h.bounds.(mid) >= v then hi := mid else lo := mid + 1
        done;
        !lo
      in
      h.counts.(idx) <- h.counts.(idx) + 1;
      h.sum <- h.sum +. v;
      h.count <- h.count + 1)

type hist_snapshot = {
  h_buckets : (float * int) list;
  h_sum : float;
  h_count : int;
}

let histogram_snapshot h =
  locked h.h_lock (fun () ->
      let acc = ref 0 in
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i b ->
               acc := !acc + h.counts.(i);
               (b, !acc))
             h.bounds)
      in
      { h_buckets = buckets; h_sum = h.sum; h_count = h.count })

let histograms t =
  locked t.lock (fun () ->
      t.hs
      |> List.map (fun h -> (h.h_name, histogram_snapshot h))
      |> List.sort (fun (a, _) (b, _) -> compare a b))

(* Exposition *)

let sanitize_name s =
  if s = "" then "_"
  else
    String.mapi
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
        | '0' .. '9' when i > 0 -> c
        | _ -> '_')
      s

let expose_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let expose t =
  let buf = Buffer.create 1024 in
  let header name help kind =
    if help <> "" then
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let cs, gs, hs =
    locked t.lock (fun () -> (t.cs, t.gs, t.hs))
  in
  let by_sanitized name_of a b = compare (sanitize_name (name_of a)) (sanitize_name (name_of b)) in
  List.iter
    (fun c ->
      let name = sanitize_name c.c_name in
      header name c.c_help "counter";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name (counter_value c)))
    (List.sort (by_sanitized (fun c -> c.c_name)) cs);
  List.iter
    (fun g ->
      let name = sanitize_name g.g_name in
      header name g.g_help "gauge";
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n" name (expose_float (gauge_value g))))
    (List.sort (by_sanitized (fun g -> g.g_name)) gs);
  List.iter
    (fun h ->
      let name = sanitize_name h.h_name in
      header name h.h_help "histogram";
      let snap = histogram_snapshot h in
      (* Only bounds that absorb observations are printed (cumulative
         counts make any bucket subset legal Prometheus); a 63-bucket
         power-of-two family would otherwise be mostly repeated lines. *)
      let prev = ref 0 in
      List.iter
        (fun (bound, cumulative) ->
          if cumulative > !prev then begin
            prev := cumulative;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
                 (expose_float bound) cumulative)
          end)
        snap.h_buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name snap.h_count);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" name (expose_float snap.h_sum));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name snap.h_count))
    (List.sort (by_sanitized (fun h -> h.h_name)) hs);
  Buffer.contents buf
