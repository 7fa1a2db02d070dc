(** Classical rumour-spreading baselines for the transmission-budget
    comparison (experiment E11).

    In the {e push} protocol every informed vertex pushes to one random
    neighbour {e every} round, forever — so late rounds waste transmissions
    on an almost-fully-informed graph. COBRA instead silences vertices that
    are not re-activated. {e Flooding} sends to all neighbours each round:
    fastest possible rounds, maximal transmissions.

    The three randomised protocols share one round-based state ({!t}):
    they differ only in which vertices draw. [Cobra.Kernel.push],
    [pull] and [push_pull] drive it one {!step} at a time; {!push},
    {!pull} and {!push_pull} run it to completion. *)

(** The randomised protocols (Fountoulakis–Panagiotou, "Rumor Spreading
    on Random Regular Graphs and Expanders"; see PAPERS.md). Each round
    the drawing vertices, in increasing vertex order, call one uniform
    random neighbour; informing is synchronous, against the informed
    set at the start of the round. *)
type protocol =
  | Push  (** every informed vertex tells its callee *)
  | Pull
      (** every {e uninformed} vertex copies the rumour if its callee
          knows it *)
  | Push_pull  (** every vertex calls; the rumour crosses both ways *)

type outcome = {
  rounds : int;  (** rounds until all vertices informed *)
  transmissions : int;  (** total messages sent over all rounds *)
}

(** Mutable protocol state. *)
type t

(** [create g protocol ~start] informs [start] only, at round 0. *)
val create : Graph.View.t -> protocol -> start:int -> t

(** [step t rng] plays one round: one neighbour draw, and one
    transmission, per drawing vertex. *)
val step : t -> Prng.Rng.t -> unit

(** [round t] — completed rounds. *)
val round : t -> int

(** [informed_count t] — vertices that know the rumour. *)
val informed_count : t -> int

(** [transmissions t] — messages sent so far. *)
val transmissions : t -> int

(** [is_complete t] — every vertex is informed. *)
val is_complete : t -> bool

(** [default_cap g] is [10_000 + 100 * n], the round cap of the one-shot
    runs below and of the kernels. *)
val default_cap : Graph.View.t -> int

(** [push ?cap g ~start rng] runs the push protocol until everyone is
    informed; [None] if [cap] rounds pass (default {!default_cap}). *)
val push : ?cap:int -> Graph.View.t -> start:int -> Prng.Rng.t -> outcome option

(** [pull ?cap g ~start rng] runs the pull protocol likewise. *)
val pull : ?cap:int -> Graph.View.t -> start:int -> Prng.Rng.t -> outcome option

(** [push_pull ?cap g ~start rng] runs the push-pull protocol likewise. *)
val push_pull : ?cap:int -> Graph.View.t -> start:int -> Prng.Rng.t -> outcome option

(** [flood g ~start] — deterministic flooding; rounds equal the start
    vertex's eccentricity. *)
val flood : Graph.View.t -> start:int -> outcome
