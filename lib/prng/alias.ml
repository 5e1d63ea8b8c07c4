type t = {
  prob : float array;  (* probability of keeping the slot's own index *)
  alias : int array;  (* fallback index per slot *)
  normalized : float array;  (* original distribution, for [probability] *)
}

let create weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Alias.create: empty weights";
  let total = ref 0. in
  Array.iter
    (fun w ->
      if w < 0. then invalid_arg "Alias.create: negative weight";
      total := !total +. w)
    weights;
  if !total <= 0. then invalid_arg "Alias.create: all weights zero";
  let normalized = Array.map (fun w -> w /. !total) weights in
  let scaled = Array.map (fun p -> p *. float_of_int n) normalized in
  let prob = Array.make n 1. in
  let alias = Array.init n (fun i -> i) in
  let small = Stack.create () and large = Stack.create () in
  Array.iteri
    (fun i s -> if s < 1. then Stack.push i small else Stack.push i large)
    scaled;
  while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
    let s = Stack.pop small and l = Stack.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
    if scaled.(l) < 1. then Stack.push l small else Stack.push l large
  done;
  (* leftovers are 1 up to rounding *)
  Stack.iter (fun i -> prob.(i) <- 1.) small;
  Stack.iter (fun i -> prob.(i) <- 1.) large;
  { prob; alias; normalized }

let draw t rng =
  let n = Array.length t.prob in
  let slot = Rng.int rng n in
  if Rng.float rng < t.prob.(slot) then slot else t.alias.(slot)

