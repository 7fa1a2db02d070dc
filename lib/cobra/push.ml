module Bitset = Dstruct.Bitset
module Intvec = Dstruct.Intvec

type protocol = Push | Pull | Push_pull

type outcome = { rounds : int; transmissions : int }

type t = {
  g : Graph.View.t;
  protocol : protocol;
  informed : Bitset.t;
  newly : Intvec.t;
  mutable count : int;
  mutable round : int;
  mutable transmissions : int;
}

let check g v =
  if v < 0 || v >= Graph.View.n_vertices g then invalid_arg "Push: vertex out of range"

let default_cap g = 10_000 + (100 * Graph.View.n_vertices g)

let create g protocol ~start =
  check g start;
  let informed = Bitset.create (Graph.View.n_vertices g) in
  Bitset.add informed start;
  {
    g;
    protocol;
    informed;
    newly = Intvec.create ~capacity:64 ();
    count = 1;
    round = 0;
    transmissions = 0;
  }

(* One synchronous round: the drawing vertices, in increasing order,
   each call one random neighbour against the current informed set and
   collect whom the contact informs; the apply pass then sets those
   bits. Apply draws nothing and only sets bits, so its order cannot
   change a result. Every draw is one message, so a round's
   transmissions are its number of drawing vertices. [w] comes from the
   adjacency array, hence the unchecked membership tests. *)
let step t rng =
  let g = t.g and informed = t.informed and newly = t.newly in
  let n = Graph.View.n_vertices g in
  Intvec.clear newly;
  (match t.protocol with
  | Push ->
    (* Only informed vertices draw. [Bitset.iter] is the increasing-order
       word scan, so early sparse rounds on a large universe skip empty
       words instead of paying O(n). *)
    t.transmissions <- t.transmissions + t.count;
    Bitset.iter
      (fun u ->
        let w = Graph.View.random_neighbour g rng u in
        if not (Bitset.unsafe_mem informed w) then Intvec.push newly w)
      informed
  | Pull ->
    (* Only uninformed vertices draw; a caller copies the rumour if the
       callee knows it. *)
    t.transmissions <- t.transmissions + (n - t.count);
    for u = 0 to n - 1 do
      if not (Bitset.unsafe_mem informed u) then begin
        let w = Graph.View.random_neighbour g rng u in
        if Bitset.unsafe_mem informed w then Intvec.push newly u
      end
    done
  | Push_pull ->
    (* Every vertex draws; the rumour crosses the contact both ways. *)
    t.transmissions <- t.transmissions + n;
    for u = 0 to n - 1 do
      let w = Graph.View.random_neighbour g rng u in
      let iu = Bitset.unsafe_mem informed u and iw = Bitset.unsafe_mem informed w in
      if iu && not iw then Intvec.push newly w
      else if iw && not iu then Intvec.push newly u
    done);
  Intvec.iter
    (fun w ->
      if not (Bitset.unsafe_mem informed w) then begin
        Bitset.unsafe_add informed w;
        t.count <- t.count + 1
      end)
    newly;
  t.round <- t.round + 1

let round t = t.round
let informed_count t = t.count
let transmissions t = t.transmissions
let is_complete t = t.count = Graph.View.n_vertices t.g

let run protocol ?cap g ~start rng =
  let t = create g protocol ~start in
  let cap = match cap with Some c -> c | None -> default_cap g in
  while (not (is_complete t)) && t.round < cap do
    step t rng
  done;
  if is_complete t then Some { rounds = t.round; transmissions = t.transmissions } else None

let push ?cap g ~start rng = run Push ?cap g ~start rng
let pull ?cap g ~start rng = run Pull ?cap g ~start rng
let push_pull ?cap g ~start rng = run Push_pull ?cap g ~start rng

let flood g ~start =
  check g start;
  let n = Graph.View.n_vertices g in
  let dist = Graph.View.bfs g start in
  let rounds = Array.fold_left Stdlib.max 0 dist in
  if Array.exists (fun d -> d < 0) dist then
    invalid_arg "Push.flood: graph is disconnected";
  (* Every informed vertex sends to all neighbours each round until the
     last round; vertex u is informed from round dist(u) on. *)
  let transmissions = ref 0 in
  for u = 0 to n - 1 do
    let active_rounds = rounds - dist.(u) in
    if active_rounds > 0 then
      transmissions := !transmissions + (active_rounds * Graph.View.degree g u)
  done;
  { rounds; transmissions = !transmissions }
