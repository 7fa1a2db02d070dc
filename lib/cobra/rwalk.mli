(** The simple random walk — COBRA's [k = 1] degenerate case and the
    baseline for experiment E8. Its cover time is Ω(n log n) on every
    graph, against COBRA's O(log n) on expanders. *)

(** [walkers] independent simple random walks from one start, moving in
    synchronous rounds, with the set of vertices their union has
    visited. [Cobra.Kernel.rwalk] drives it one {!step} at a time;
    {!multi_cover_time} and {!cover_time} run it to cover. *)
type t

(** [create g ~walkers ~start] places [walkers >= 1] walkers on [start]
    at round 0; [start] counts as visited. *)
val create : Graph.View.t -> walkers:int -> start:int -> t

(** [step t rng] plays one round: every walker, in index order, moves
    to one uniform random neighbour. *)
val step : t -> Prng.Rng.t -> unit

(** [round t] — completed rounds (steps of each walker). *)
val round : t -> int

(** [visited_count t] — vertices some walker has visited. *)
val visited_count : t -> int

(** [is_covered t] — every vertex has been visited. *)
val is_covered : t -> bool

(** [default_cap g] is [100 * n^2 + 10_000], comfortably above the
    O(n^2·log n) worst-case cover time for small n; pass an explicit
    cap for large graphs. *)
val default_cap : Graph.View.t -> int

(** [multi_cover_time ?cap g ~walkers ~start rng] runs [walkers >= 1]
    independent simple random walks from [start] in synchronous rounds
    and returns the number of rounds until their union has visited every
    vertex, or [None] if [cap] rounds (default {!default_cap}) pass
    first. This is the "many random walks" baseline of Alon et al.
    (cited as [1] in the paper): independent walkers speed cover up by at
    most a factor ~[walkers], whereas COBRA's *dependent* branching
    reaches O(log n). *)
val multi_cover_time :
  ?cap:int -> Graph.View.t -> walkers:int -> start:int -> Prng.Rng.t -> int option

(** [cover_time ?cap g ~start rng] is [multi_cover_time ~walkers:1]: the
    number of steps a single walk needs to visit every vertex. *)
val cover_time : ?cap:int -> Graph.View.t -> start:int -> Prng.Rng.t -> int option

(** [hitting_time ?cap g ~start ~target rng] is the first step at which
    the walk reaches [target]. *)
val hitting_time :
  ?cap:int -> Graph.View.t -> start:int -> target:int -> Prng.Rng.t -> int option

(** [positions ?steps g ~start rng] runs [steps] steps and returns the
    trajectory including the start (length [steps + 1]). *)
val positions : ?steps:int -> Graph.View.t -> start:int -> Prng.Rng.t -> int array
