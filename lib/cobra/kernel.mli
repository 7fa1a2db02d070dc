(** The unified stochastic-process interface.

    Every process this repository studies — COBRA, BIPS, the simple
    random walk, the push/pull/push-pull protocols, coalescing walks
    with voting, the unvisited-edge-preferring walk, and (in
    [Epidemic.Kernels]) SIS, the contact process, the herd model and
    the SEIR process — is driveable through one
    signature: [create] builds mutable round-based state, [step] plays
    one round against an explicit stream, [is_complete] tests the
    process's own absorption condition, and [observe] reads named
    numeric observables of the current state. One driver loop
    ({!run}) therefore serves every process; the sweep subsystem
    ([Simkit.Campaign] + the [sweep] CLI) and the single-shot CLI
    subcommands both build on it.

    The contract that makes kernel-driven execution interchangeable
    with the historical per-process loops ([Process.cover_time],
    [Bips.infection_time], [Epidemic.Sis.run], ...): a kernel's [step]
    consumes {e exactly} the randomness of one round of the process it
    wraps, and {!run}'s loop — step while not complete and under the
    cap — performs the same sequence of [step] calls as those loops.
    Every kernel is a thin adapter over its process's module, so a
    kernel and that module's one-shot loop share one implementation of
    a round. [test/sweep] pins each
    kernel's streams (against the one-shot loop, or against values
    recorded from it), and [test/cli]'s golden transcripts pin the
    resulting CLI output byte-for-byte. *)

(** The union of the knobs the processes understand. Each kernel reads
    the fields relevant to it and ignores the rest; {!default_params}
    matches the CLI defaults. *)
type params = {
  branching : Branching.t;  (** COBRA/BIPS branching; SIS/herd contacts *)
  start : int;  (** start vertex / source / index case *)
  walkers : int;  (** random walk: number of independent walkers *)
  rate : float;  (** contact process: per-edge infection rate *)
  horizon : float;  (** contact process: simulated-time horizon *)
  recovery : float;  (** SIS: per-round recovery probability *)
  persistent : bool;
      (** SIS/contact: never-recovering source; herd: PI animal *)
  infectious_rounds : int;  (** herd/seir: infectious-window duration *)
  immune_rounds : int;  (** herd: post-infection immunity duration *)
  latent_rounds : int;  (** seir: Exposed duration before infectiousness *)
  cap : int option;
      (** round cap for {!run}; [None] selects the kernel's default *)
}

val default_params : params

(** Mutable process state behind first-class functions. [step] plays one
    round (one walk move for the random walk; the whole event-driven run
    for the continuous-time contact process, which has no round
    structure). [rounds] counts completed [step]s for the cap. *)
type instance = {
  step : Prng.Rng.t -> unit;
  is_complete : unit -> bool;
  rounds : unit -> int;
  observe : unit -> (string * float) list;
}

(** A process kernel: a named constructor of instances. *)
type t = {
  name : string;  (** CLI / grid identifier, e.g. ["cobra"] *)
  doc : string;  (** one-line description *)
  default_cap : Graph.View.t -> int;
      (** the cap {!run} applies when [params.cap = None]; matches the
          wrapped process's historical default *)
  create : Graph.View.t -> params -> instance;
}

(** The result of driving an instance to completion or the cap. *)
type outcome = {
  completed : bool;  (** [is_complete] held when the loop stopped *)
  rounds : int;  (** rounds played *)
  observations : (string * float) list;  (** final [observe] *)
}

(** [run t g params rng] creates an instance and steps it until
    [is_complete] or [params.cap] (default [t.default_cap g]) rounds.
    The loop is the exact shape of the historical one-shot drivers, so
    for equal input streams the results coincide bit-for-bit. *)
val run : t -> Graph.View.t -> params -> Prng.Rng.t -> outcome

(** [observation o key] looks a named observable up in [o]. *)
val observation : outcome -> string -> float option

(** {1 Kernel instances}

    Observables: every kernel reports ["rounds"]; coverage-style kernels
    also report ["visited"]; see each kernel's doc string for the rest.
    [Epidemic.Kernels] adds [sis], [contact], [herd] and [seir]. *)

(** COBRA cover: complete when every vertex has been active at least
    once. Observes ["rounds"; "visited"; "frontier"; "transmissions"]. *)
val cobra : t

(** BIPS: complete at saturation [A_t = V]. Observes
    ["rounds"; "infected"]. *)
val bips : t

(** Simple random walk(s) ({!Rwalk}): [params.walkers] independent
    walkers from [start], complete at cover. Observes
    ["rounds"; "visited"]. *)
val rwalk : t

(** The rumour-spreading protocols of {!Push}
    (Fountoulakis–Panagiotou, see PAPERS.md): [push] (every informed
    vertex tells one random neighbour), [pull] (every uninformed vertex
    asks one) and [push-pull] (every vertex calls one, and the rumour
    crosses both ways). Complete when everyone is informed. Observe
    ["rounds"; "informed"; "transmissions"]. *)
val push : t

val pull : t

val push_pull : t

(** Coalescing random walks with voting ({!Coalesce};
    Cooper–Elsässer–Ono–Radzik, see PAPERS.md): [params.walkers]
    clusters starting at [(start + i) mod n] merge on meeting. Complete
    at consensus (one cluster). Observes
    ["rounds"; "clusters"; "walkers"; "merged"]. *)
val coalesce : t

(** Unvisited-edge-preferring walk ({!Explore};
    Berenbrink–Cooper–Friedetzky, see PAPERS.md): a single walker from
    [start] that prefers unvisited incident edges. Complete at vertex
    cover. Observes ["rounds"; "visited"; "edges"]. *)
val explore : t
