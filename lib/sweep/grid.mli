(** Declarative sweep grids: graph family x process kernel x branching,
    with shared trial counts and kernel parameters.

    A grid expands ({!cells}) into the cartesian product of its three
    axes, in a fixed order (graphs outermost, then kernels, then
    branchings), each point becoming one [Simkit.Campaign] cell whose
    address is the canonical ["g=<spec>;k=<kernel>;b=<branching>"]
    string. Cell payloads are deterministic functions of
    [(master, salt)]: the cell builds its graph from the stream tagged
    by the graph description (so every cell of the same spec sees the
    same graph), then runs [trials] kernel trials on the streams
    [salt + 0 .. salt + trials - 1].

    The cells of one {!cells} call share a graph memo keyed by
    [(spec, backend, master)]: cells of one spec share one build, and
    concurrent cells of a key wait for that build rather than repeat
    it. The memo retains the graphs running cells hold plus one parked
    graph, the one released last, so a campaign (whose cells of one
    spec are contiguous) builds each spec once on one domain and holds
    at most one graph more than it runs on. It lives in the cells'
    closures and is freed with the cell list. A failed build fails
    every cell waiting on it with the same
    ["<address>: graph build failed: ..."] message a lone build gives.

    Grids are written as JSON documents (schema {!schema}) or as inline
    [key=value;...] strings; {!load} accepts either (a path that exists
    on disk is parsed as a file). *)

type t = {
  name : string;  (** campaign name; default ["sweep"] *)
  graphs : Graph.Spec.t list;
  kernels : Cobra.Kernel.t list;
  branchings : Cobra.Branching.t list;
  trials : int;
  base : Cobra.Kernel.params;
      (** shared kernel parameters; [branching] is overridden per cell *)
  engine : Kernels.engine;
      (** trial execution engine ([key engine=scalar|lanes]; default
          scalar). [`Lanes] runs lanes-capable kernels 64 trials per
          word via [Kernels.run_trials], falling back to scalar per
          kernel; it is part of the campaign identity, so checkpoints
          written under one engine refuse to resume under the other. *)
  backend : Graph.View.backend;
      (** topology backend the cells build their graph behind
          ([key backend=heap|bigarray|implicit]; default heap). All
          three produce bit-identical RNG streams for the same
          topology, but the backend is still part of the campaign
          identity — a checkpoint written under one backend refuses to
          resume under another, so a cross-backend divergence can never
          hide inside a mixed checkpoint. Heap grids omit the meta key,
          keeping pre-existing checkpoints valid. *)
}

(** The grid-file schema identifier, ["cobra.sweep-grid/1"]. *)
val schema : string

(** [of_json doc] parses a grid document:
    [{"schema"?, "name"?, "graphs": [...], "kernels": [...],
      "branching"?: [...], "trials"?, "params"?: {...}}].
    [params] accepts [start], [walkers], [rate], [horizon], [recovery],
    [persistent], [infectious_rounds], [immune_rounds], [cap]. *)
val of_json : Simkit.Json.t -> (t, string) result

(** [of_inline s] parses the compact CLI form, e.g.
    ["name=smoke;graphs=cycle:12,complete:8;kernels=cobra,bips;branching=k=2;trials=3;rate=1.5"]
    — the same keys as the JSON form, with [params] flattened. *)
val of_inline : string -> (t, string) result

(** [load s] reads [s] as a file when it exists on disk, otherwise
    parses it as an inline grid. A non-existent [s] that looks like a
    file path (ends in [.json], or contains no ['=']) is reported as a
    missing file instead of being fed to the inline parser. *)
val load : string -> (t, string) result

(** [cells grid] expands the grid into campaign cells (addresses unique,
    indices positional). *)
val cells : t -> Simkit.Campaign.cell list

(** [graph_builds ()] counts the graphs built by cells since the
    process started, across every cell list: a read-only observation of
    the memo's effect. *)
val graph_builds : unit -> int
