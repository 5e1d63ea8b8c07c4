(* Bytes are spread uniformly over the connection's lifetime, clipped to the
   aggregation window — a long transfer contributes to every bin it spans,
   exactly as netflow-based TM construction sees it. *)
let spread tm ~width ~bins ~start_s ~duration_s ~row ~col ~bytes =
  if bytes > 0. then begin
    let duration = Float.max duration_s 1e-6 in
    let finish_s = start_s +. duration in
    let first = int_of_float (Float.floor (start_s /. width)) in
    let last = int_of_float (Float.floor ((finish_s -. 1e-9) /. width)) in
    let rate = bytes /. duration in
    for b = Stdlib.max first 0 to Stdlib.min last (bins - 1) do
      let lo = Float.max start_s (float_of_int b *. width) in
      let hi = Float.min finish_s (float_of_int (b + 1) *. width) in
      if hi > lo then Ic_traffic.Tm.add_to tm.(b) row col (rate *. (hi -. lo))
    done
  end

let to_series connections ~n ~binning ~bins =
  if bins <= 0 then invalid_arg "Aggregate.to_series: bins must be positive";
  let width = float_of_int binning.Ic_timeseries.Timebin.width_s in
  let tms = Array.init bins (fun _ -> Ic_traffic.Tm.create n) in
  List.iter
    (fun (c : Connection.t) ->
      spread tms ~width ~bins ~start_s:c.start_s ~duration_s:c.duration_s
        ~row:c.initiator ~col:c.responder ~bytes:c.fwd_bytes;
      spread tms ~width ~bins ~start_s:c.start_s ~duration_s:c.duration_s
        ~row:c.responder ~col:c.initiator ~bytes:c.rev_bytes)
    connections;
  Ic_traffic.Series.make binning tms
