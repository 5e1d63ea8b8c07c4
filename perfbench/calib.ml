(* The benchmark's clock and its calibration kernel.

   Wall-clock on a small shared host drifts in phases of about half a
   second, and the drift lives in the memory system: a register-only loop
   stays flat while the estimation kernels slow down by up to 2x. The
   kernel is a naive Cholesky of the same order as the Géant tomogravity
   Gram (122 rows), then a strided read of 4 MB. The read tracks the
   refit, whose window outgrows the caches: without it the quartile spread
   of stream-ic throughput over seeds was 8%, with it 4%. The kernel is
   benchmark code, so no library change can move it, and it runs only
   between operations, never while one is in flight.

   Each operation's wall time is divided by the median of the 5
   calibration samples nearest to it and multiplied by the nominal time of
   the kernel part used, so a normalized time keeps its unit: microseconds
   on a host whose kernel runs at its nominal time. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let dim = 122

(* Nominal times of the Cholesky and of the read. Constants, not
   measurements, so that normalized figures from different runs and commits
   share one scale. *)
let nominal_ns = 500_000.
let nominal_far_ns = 150_000.

(* A fixed, well-conditioned SPD matrix: B^T B + dim I with B from a
   deterministic LCG. *)
let spd =
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    (float_of_int !state /. float_of_int 0x3fffffff) -. 0.5
  in
  let b = Array.init (dim * dim) (fun _ -> next ()) in
  Array.init (dim * dim) (fun idx ->
      let i = idx / dim and j = idx mod dim in
      let s = ref (if i = j then float_of_int dim else 0.) in
      for k = 0 to dim - 1 do
        s := !s +. (b.((k * dim) + i) *. b.((k * dim) + j))
      done;
      !s)

(* In-place lower Cholesky of [spd] into [work]. Allocation-free. *)
let cholesky work =
  Array.blit spd 0 work 0 (dim * dim);
  for j = 0 to dim - 1 do
    let d = ref work.((j * dim) + j) in
    for k = 0 to j - 1 do
      let l = work.((j * dim) + k) in
      d := !d -. (l *. l)
    done;
    let ljj = sqrt !d in
    work.((j * dim) + j) <- ljj;
    for i = j + 1 to dim - 1 do
      let s = ref work.((i * dim) + j) in
      for k = 0 to j - 1 do
        s := !s -. (work.((i * dim) + k) *. work.((j * dim) + k))
      done;
      work.((i * dim) + j) <- !s /. ljj
    done
  done

(* One word per cache line over 4 MB. *)
let far = Array.make (512 * 1024) 1.
let far_sum = ref 0.

let sweep () =
  let s = ref 0. in
  let i = ref 0 in
  while !i < Array.length far do
    s := !s +. Array.unsafe_get far !i;
    i := !i + 8
  done;
  far_sum := !s

(* One calibration series: a sample every [stride] operations, timing the
   Cholesky alone and with the read. The work buffer is per series, so
   series on different domains never share it. *)
type t = {
  stride : int;
  work : float array;
  near : Stat.buf;  (* Cholesky, ns *)
  whole : Stat.buf;  (* Cholesky and read, ns *)
}

let create ~stride () =
  { stride; work = Array.make (dim * dim) 0.; near = Stat.buf (); whole = Stat.buf () }

let sample t =
  let t0 = now_ns () in
  cholesky t.work;
  let t1 = now_ns () in
  sweep ();
  let t2 = now_ns () in
  Stat.push t.near (t1 -. t0);
  Stat.push t.whole (t2 -. t0)

(* Call before operation [i]: samples when [i] is a multiple of the
   stride, so sample [k] sits just before operation [k * stride]. *)
let tick t i = if i mod t.stride = 0 then sample t

let median_sample t = Stat.median (Stat.contents t.near)
let median_whole t = Stat.median (Stat.contents t.whole)

(* Operations longer than this (refits, set-ups) are scaled by the whole
   kernel, shorter ones by the Cholesky alone: the read tracks work that
   outgrows the caches, but added noise to the 0.5 ms tomogravity steps
   (quartile spread of their p50 over seeds 1% without it, 10% with it). *)
let long_ns = 1e6

(* nominal / (median of the 5 samples nearest operation [i]). *)
let factor t i ~long =
  let xs = if long then t.whole else t.near in
  let n = xs.Stat.len in
  if n = 0 then 1.
  else begin
    let w = min 5 n in
    let centre = (i + (t.stride / 2)) / t.stride in
    let lo = max 0 (min (n - w) (centre - (w / 2))) in
    let nominal = if long then nominal_ns +. nominal_far_ns else nominal_ns in
    nominal /. Stat.median (Array.sub xs.Stat.data lo w)
  end

let normalize t raw = Array.mapi (fun i x -> x *. factor t i ~long:(x > long_ns)) raw

(* One scalar for a whole phase: nominal / median Cholesky sample. *)
let phase_factor t =
  if t.near.Stat.len = 0 then 1. else nominal_ns /. median_sample t
