type params = {
  branching : Branching.t;
  start : int;
  walkers : int;
  rate : float;
  horizon : float;
  recovery : float;
  persistent : bool;
  infectious_rounds : int;
  immune_rounds : int;
  latent_rounds : int;
  cap : int option;
}

let default_params =
  {
    branching = Branching.cobra_k2;
    start = 0;
    walkers = 1;
    rate = 0.5;
    horizon = 200.0;
    recovery = 0.3;
    persistent = false;
    infectious_rounds = 2;
    immune_rounds = 8;
    latent_rounds = 1;
    cap = None;
  }

type instance = {
  step : Prng.Rng.t -> unit;
  is_complete : unit -> bool;
  rounds : unit -> int;
  observe : unit -> (string * float) list;
}

type t = {
  name : string;
  doc : string;
  default_cap : Graph.View.t -> int;
  create : Graph.View.t -> params -> instance;
}

type outcome = {
  completed : bool;
  rounds : int;
  observations : (string * float) list;
}

(* The loop shape of every historical one-shot driver: test completion
   before each step, stop at the cap. For equal streams this performs the
   identical sequence of per-round draws. *)
let run t g params rng =
  let cap = match params.cap with Some c -> c | None -> t.default_cap g in
  let i = t.create g params in
  while (not (i.is_complete ())) && i.rounds () < cap do
    i.step rng
  done;
  { completed = i.is_complete (); rounds = i.rounds (); observations = i.observe () }

let observation o key = List.assoc_opt key o.observations

let fi = float_of_int

let round_cap g = 10_000 + (100 * Graph.View.n_vertices g)

let cobra =
  {
    name = "cobra";
    doc = "COBRA coalescing-branching walk, run to cover";
    default_cap = round_cap;
    create =
      (fun g params ->
        let p = Process.create g ~branching:params.branching ~start:[ params.start ] in
        {
          step = (fun rng -> Process.step p rng);
          is_complete = (fun () -> Process.is_covered p);
          rounds = (fun () -> Process.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Process.round p));
                ("visited", fi (Process.visited_count p));
                ("frontier", fi (Process.frontier_size p));
                ("transmissions", fi (Process.transmissions p));
              ]);
        });
  }

let bips =
  {
    name = "bips";
    doc = "BIPS persistent-source epidemic, run to saturation";
    default_cap = round_cap;
    create =
      (fun g params ->
        let p = Bips.create g ~branching:params.branching ~source:params.start in
        {
          step = (fun rng -> Bips.step p rng);
          is_complete = (fun () -> Bips.is_saturated p);
          rounds = (fun () -> Bips.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Bips.round p));
                ("infected", fi (Bips.infected_count p));
              ]);
        });
  }

let rwalk =
  {
    name = "rwalk";
    doc = "independent simple random walk(s), run to cover";
    default_cap = Rwalk.default_cap;
    create =
      (fun g params ->
        let p = Rwalk.create g ~walkers:params.walkers ~start:params.start in
        {
          step = (fun rng -> Rwalk.step p rng);
          is_complete = (fun () -> Rwalk.is_covered p);
          rounds = (fun () -> Rwalk.round p);
          observe =
            (fun () ->
              [ ("rounds", fi (Rwalk.round p)); ("visited", fi (Rwalk.visited_count p)) ]);
        });
  }

let rumour name doc protocol =
  {
    name;
    doc;
    default_cap = Push.default_cap;
    create =
      (fun g params ->
        let p = Push.create g protocol ~start:params.start in
        {
          step = (fun rng -> Push.step p rng);
          is_complete = (fun () -> Push.is_complete p);
          rounds = (fun () -> Push.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Push.round p));
                ("informed", fi (Push.informed_count p));
                ("transmissions", fi (Push.transmissions p));
              ]);
        });
  }

let push = rumour "push" "push rumour spreading, run to full information" Push.Push
let pull = rumour "pull" "pull rumour spreading, run to full information" Push.Pull

let push_pull =
  rumour "push-pull" "push-pull rumour spreading, run to full information" Push.Push_pull

(* Thin wrapper over [Coalesce]: same module, same stream. *)
let coalesce =
  {
    name = "coalesce";
    doc = "coalescing random walks with voting, run to consensus";
    default_cap = Coalesce.default_cap;
    create =
      (fun g params ->
        let p = Coalesce.create g ~walkers:params.walkers ~start:params.start in
        {
          step = (fun rng -> Coalesce.step p rng);
          is_complete = (fun () -> Coalesce.is_consensus p);
          rounds = (fun () -> Coalesce.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Coalesce.round p));
                ("clusters", fi (Coalesce.clusters p));
                ("walkers", fi (Coalesce.walkers p));
                ("merged", fi (Coalesce.merged p));
              ]);
        });
  }

(* Thin wrapper over [Explore]: same module, same stream. *)
let explore =
  {
    name = "explore";
    doc = "unvisited-edge-preferring walk, run to cover";
    default_cap = Explore.default_cap;
    create =
      (fun g params ->
        let p = Explore.create g ~start:params.start in
        {
          step = (fun rng -> Explore.step p rng);
          is_complete = (fun () -> Explore.is_covered p);
          rounds = (fun () -> Explore.round p);
          observe =
            (fun () ->
              [
                ("rounds", fi (Explore.round p));
                ("visited", fi (Explore.visited_count p));
                ("edges", fi (Explore.edges_traversed p));
              ]);
        });
  }
