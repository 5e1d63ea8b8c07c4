type spec = { noise_sigma : float; loss_rate : float }

let ideal = { noise_sigma = 0.; loss_rate = 0. }

let validate spec =
  if spec.noise_sigma < 0. then invalid_arg "Snmp: negative noise";
  if spec.loss_rate < 0. || spec.loss_rate >= 1. then
    invalid_arg "Snmp: loss rate out of [0,1)"

(* --- streaming poll source --------------------------------------------- *)

type poll = { values : Ic_linalg.Vec.t; missing : bool array }

type stream = {
  spec : spec;
  rng : Ic_prng.Rng.t;
  mutable last : Ic_linalg.Vec.t option;  (* last reported poll per link *)
}

let stream spec rng =
  validate spec;
  { spec; rng; last = None }

let poll stream true_loads =
  let spec = stream.spec in
  let m = Array.length true_loads in
  let last =
    match stream.last with
    | Some last ->
        if Array.length last <> m then
          invalid_arg "Snmp.poll: link count changed mid-stream";
        last
    | None ->
        (* First poll: losses fall back to the true value. *)
        let last = Array.copy true_loads in
        stream.last <- Some last;
        last
  in
  let correction = spec.noise_sigma *. spec.noise_sigma /. 2. in
  let missing = Array.make m false in
  let values =
    Array.mapi
      (fun e v ->
        if spec.loss_rate > 0. && Ic_prng.Rng.float stream.rng < spec.loss_rate
        then begin
          (* missing poll: carry the last value forward *)
          missing.(e) <- true;
          last.(e)
        end
        else if spec.noise_sigma = 0. then v
        else
          v
          *. exp
               (Ic_prng.Sampler.normal stream.rng ~mu:(-.correction)
                  ~sigma:spec.noise_sigma))
      true_loads
  in
  Array.blit values 0 last 0 m;
  { values; missing }

(* --- whole-series measurement ------------------------------------------ *)

let measure_series spec rng loads =
  validate spec;
  let bins = Array.length loads in
  if bins = 0 then [||]
  else begin
    let m = Array.length loads.(0) in
    Array.iter
      (fun v ->
        if Array.length v <> m then
          invalid_arg "Snmp.measure_series: ragged load series")
      loads;
    let stream = stream spec rng in
    Array.map (fun true_loads -> (poll stream true_loads).values) loads
  end
