type t = { binning : Ic_timeseries.Timebin.t; tms : Tm.t array }

let make binning tms =
  if Array.length tms = 0 then invalid_arg "Series.make: empty series";
  let n = Tm.size tms.(0) in
  Array.iter
    (fun tm ->
      if Tm.size tm <> n then invalid_arg "Series.make: inconsistent TM sizes")
    tms;
  { binning; tms }

let length t = Array.length t.tms

let size t = Tm.size t.tms.(0)

let tm t k =
  if k < 0 || k >= length t then invalid_arg "Series.tm: bin out of range";
  t.tms.(k)

let sub t ~pos ~len = make t.binning (Array.sub t.tms pos len)

let od_series t i j = Array.map (fun tm -> Tm.get tm i j) t.tms

let total_series t = Array.map Tm.total t.tms

let map f t = { t with tms = Array.map f t.tms }
