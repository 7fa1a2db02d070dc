module Bitset = Dstruct.Bitset

let check g v =
  if v < 0 || v >= Graph.View.n_vertices g then invalid_arg "Rwalk: vertex out of range"

let default_cap g =
  let n = Graph.View.n_vertices g in
  (100 * n * n) + 10_000

(* The walk positions stay in range by construction ([start] is checked
   on entry, every later position is an adjacency entry), so the walks
   use the unchecked CSR/bitset accessors. *)

type t = {
  g : Graph.View.t;
  positions : int array;
  seen : Bitset.t;
  mutable remaining : int;
  mutable round : int;
}

let create g ~walkers ~start =
  check g start;
  if walkers < 1 then invalid_arg "Rwalk.create: walkers >= 1";
  let n = Graph.View.n_vertices g in
  let seen = Bitset.create n in
  Bitset.add seen start;
  { g; positions = Array.make walkers start; seen; remaining = n - 1; round = 0 }

let step t rng =
  let positions = t.positions in
  for w = 0 to Array.length positions - 1 do
    let next = Graph.View.unsafe_random_neighbour t.g rng (Array.unsafe_get positions w) in
    Array.unsafe_set positions w next;
    if not (Bitset.unsafe_mem t.seen next) then begin
      Bitset.unsafe_add t.seen next;
      t.remaining <- t.remaining - 1
    end
  done;
  t.round <- t.round + 1

let round t = t.round
let visited_count t = Graph.View.n_vertices t.g - t.remaining
let is_covered t = t.remaining = 0

let multi_cover_time ?cap g ~walkers ~start rng =
  let t = create g ~walkers ~start in
  let cap = match cap with Some c -> c | None -> default_cap g in
  while (not (is_covered t)) && t.round < cap do
    step t rng
  done;
  if is_covered t then Some t.round else None

let cover_time ?cap g ~start rng = multi_cover_time ?cap g ~walkers:1 ~start rng

let hitting_time ?cap g ~start ~target rng =
  check g start;
  check g target;
  let cap = match cap with Some c -> c | None -> default_cap g in
  let rec go pos steps =
    if pos = target then Some steps
    else if steps >= cap then None
    else go (Graph.View.unsafe_random_neighbour g rng pos) (steps + 1)
  in
  go start 0

let positions ?(steps = 1000) g ~start rng =
  check g start;
  if steps < 0 then invalid_arg "Rwalk.positions: steps >= 0";
  let out = Array.make (steps + 1) start in
  for i = 1 to steps do
    out.(i) <- Graph.View.unsafe_random_neighbour g rng out.(i - 1)
  done;
  out
