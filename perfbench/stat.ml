(* Order statistics over samples. Inputs are never mutated. *)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then 0.
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* The sample with exactly ten slower samples after it: the highest
   percentile that ten samples beyond it support. Falls back to the maximum
   on fewer than eleven samples. *)
let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then 0. else s.(max 0 (n - 11))

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else sum xs /. float_of_int n

(* A growable float buffer, for per-operation samples of unknown count. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 4096 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
