type _ Effect.t += Spent : unit Effect.t

type 'a state =
  | Fresh of ((unit -> unit) -> 'a)
  | Paused of (unit, 'a state) Effect.Deep.continuation
  | Done of 'a

type 'a t = {
  mutable visits : int;
  mutable limit : int;  (* the visit count at which the slice suspends *)
  mutable state : 'a state;
}

let visit t () =
  if t.visits = t.limit then Effect.perform Spent;
  t.visits <- t.visits + 1

let handler () =
  {
    Effect.Deep.retc = (fun v -> Done v);
    exnc = raise;
    effc =
      (fun (type b) (e : b Effect.t) ->
        match e with
        | Spent ->
            Some (fun (k : (b, _) Effect.Deep.continuation) -> Paused k)
        | _ -> None);
  }

let abandon t =
  match t.state with
  | Paused k -> (
      try ignore (Effect.Deep.discontinue k Exit) with _ -> ())
  | Fresh _ | Done _ -> ()

let create f =
  let t = { visits = 0; limit = 0; state = Fresh f } in
  Gc.finalise abandon t;
  t

let run t ~budget =
  t.limit <-
    (if budget >= max_int - t.visits then max_int else t.visits + budget);
  match t.state with
  | Fresh f -> t.state <- Effect.Deep.match_with f (visit t) (handler ())
  | Paused k -> t.state <- Effect.Deep.continue k ()
  | Done _ -> ()

let result t = match t.state with Done v -> Some v | Fresh _ | Paused _ -> None

let visits t = t.visits
