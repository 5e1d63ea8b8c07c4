type t = { width_s : int }

let seconds_per_day = 86_400

let seconds_per_week = 7 * seconds_per_day

let make ~width_s =
  if width_s <= 0 then invalid_arg "Timebin.make: width must be positive";
  if seconds_per_week mod width_s <> 0 then
    invalid_arg "Timebin.make: width must divide a week";
  { width_s }

let five_min = make ~width_s:300

let fifteen_min = make ~width_s:900

let bins_per_day t = seconds_per_day / t.width_s

let bins_per_week t = seconds_per_week / t.width_s

let seconds_of_bin t k = k * t.width_s

(* Flooring division/modulo: OCaml's (/) and (mod) truncate toward zero, so
   for bins before the epoch (negative indices, which sliding windows can
   produce near a rollover) they are off by one relative to the calendar.
   [fdiv (-1) 288 = -1] where [(-1) / 288 = 0]. *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let fmod a b = a - (b * fdiv a b)

let hour_of_day t k =
  let s = fmod (seconds_of_bin t k) seconds_per_day in
  float_of_int s /. 3600.

let day_of_week t k = fmod (fdiv (seconds_of_bin t k) seconds_per_day) 7

let is_weekend t k =
  let d = day_of_week t k in
  d = 5 || d = 6
