module K = Cobra.Kernel
module Json = Simkit.Json

type t = {
  name : string;
  graphs : Graph.Spec.t list;
  kernels : K.t list;
  branchings : Cobra.Branching.t list;
  trials : int;
  base : K.params;
  engine : Kernels.engine;
  backend : Graph.View.backend;
}

let schema = "cobra.sweep-grid/1"

let ( let* ) = Result.bind

(* ---------- parsing ---------- *)

(* Both grid forms (JSON file, inline string) funnel their scalar
   parameters through this string-typed setter, so the two accept
   exactly the same keys. *)
let set_param p key v =
  let int f =
    match int_of_string_opt v with
    | Some i -> Ok (f i)
    | None -> Error (Printf.sprintf "%s: expected an integer, got %S" key v)
  in
  let flt f =
    match float_of_string_opt v with
    | Some x -> Ok (f x)
    | None -> Error (Printf.sprintf "%s: expected a number, got %S" key v)
  in
  let bool f =
    match String.lowercase_ascii v with
    | "true" -> Ok (f true)
    | "false" -> Ok (f false)
    | _ -> Error (Printf.sprintf "%s: expected true or false, got %S" key v)
  in
  match key with
  | "start" -> int (fun i -> { p with K.start = i })
  | "walkers" -> int (fun i -> { p with K.walkers = i })
  | "rate" -> flt (fun x -> { p with K.rate = x })
  | "horizon" -> flt (fun x -> { p with K.horizon = x })
  | "recovery" -> flt (fun x -> { p with K.recovery = x })
  | "persistent" -> bool (fun b -> { p with K.persistent = b })
  | "infectious_rounds" -> int (fun i -> { p with K.infectious_rounds = i })
  | "immune_rounds" -> int (fun i -> { p with K.immune_rounds = i })
  | "latent_rounds" -> int (fun i -> { p with K.latent_rounds = i })
  | "cap" -> int (fun i -> { p with K.cap = Some i })
  | _ -> Error (Printf.sprintf "unknown parameter %S" key)

let param_keys =
  [ "start"; "walkers"; "rate"; "horizon"; "recovery"; "persistent";
    "infectious_rounds"; "immune_rounds"; "latent_rounds"; "cap" ]

let parse_graphs strs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
      match Graph.Spec.parse s with
      | Ok spec -> go (spec :: acc) rest
      | Error msg -> Error (Printf.sprintf "graph %S: %s" s msg))
  in
  go [] strs

let parse_kernels strs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
      match Kernels.find_res s with
      | Ok k -> go (k :: acc) rest
      | Error msg -> Error msg)
  in
  go [] strs

let parse_branchings strs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
      match Cobra.Branching.of_string s with
      | Ok b -> go (b :: acc) rest
      | Error msg -> Error (Printf.sprintf "branching %S: %s" s msg))
  in
  go [] strs

let validate grid =
  if grid.graphs = [] then Error "grid needs at least one graph"
  else if grid.kernels = [] then Error "grid needs at least one kernel"
  else if grid.branchings = [] then Error "grid needs at least one branching"
  else if grid.trials < 1 then Error "trials must be >= 1"
  else Ok grid

let of_json doc =
  let str_field key = Option.bind (Json.member key doc) Json.to_string_opt in
  let str_list key =
    match Json.member key doc with
    | None -> Ok None
    | Some v -> (
      match Json.to_list v with
      | None -> Error (Printf.sprintf "%s: expected a list of strings" key)
      | Some items ->
        let strs = List.filter_map Json.to_string_opt items in
        if List.length strs <> List.length items then
          Error (Printf.sprintf "%s: expected a list of strings" key)
        else Ok (Some strs))
  in
  let* () =
    match str_field "schema" with
    | None -> Ok ()
    | Some s when s = schema -> Ok ()
    | Some s -> Error (Printf.sprintf "unsupported grid schema %S (want %S)" s schema)
  in
  let* graphs_s = str_list "graphs" in
  let* kernels_s = str_list "kernels" in
  let* branchings_s = str_list "branching" in
  let* graphs = parse_graphs (Option.value graphs_s ~default:[]) in
  let* kernels = parse_kernels (Option.value kernels_s ~default:[]) in
  let* branchings = parse_branchings (Option.value branchings_s ~default:[ "k=2" ]) in
  let* trials =
    match Json.member "trials" doc with
    | None -> Ok 10
    | Some (Json.Int i) -> Ok i
    | Some _ -> Error "trials: expected an integer"
  in
  let* engine =
    match str_field "engine" with
    | None -> Ok `Scalar
    | Some s -> Kernels.engine_of_string s
  in
  let* backend =
    match str_field "backend" with
    | None -> Ok `Heap
    | Some s -> Graph.View.backend_of_string s
  in
  let* base =
    match Json.member "params" doc with
    | None -> Ok K.default_params
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (key, v) ->
          let* p = acc in
          let* s =
            match v with
            | Json.Int i -> Ok (string_of_int i)
            | Json.Float x -> Ok (Json.float_repr x)
            | Json.Bool b -> Ok (string_of_bool b)
            | Json.String s -> Ok s
            | _ -> Error (Printf.sprintf "params.%s: expected a scalar" key)
          in
          set_param p key s)
        (Ok K.default_params) fields
    | Some _ -> Error "params: expected an object"
  in
  validate
    {
      name = Option.value (str_field "name") ~default:"sweep";
      graphs;
      kernels;
      branchings;
      trials;
      base;
      engine;
      backend;
    }

let of_inline s =
  let fields =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  let split_kv f =
    match String.index_opt f '=' with
    | None -> Error (Printf.sprintf "%S: expected key=value" f)
    | Some i ->
      Ok (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
  in
  let commas v = String.split_on_char ',' v |> List.map String.trim in
  List.fold_left
    (fun acc f ->
      let* grid = acc in
      let* key, v = split_kv f in
      match key with
      | "name" -> Ok { grid with name = v }
      | "graphs" ->
        let* graphs = parse_graphs (commas v) in
        Ok { grid with graphs }
      | "kernels" ->
        let* kernels = parse_kernels (commas v) in
        Ok { grid with kernels }
      | "branching" ->
        let* branchings = parse_branchings (commas v) in
        Ok { grid with branchings }
      | "trials" -> (
        match int_of_string_opt v with
        | Some i -> Ok { grid with trials = i }
        | None -> Error (Printf.sprintf "trials: expected an integer, got %S" v))
      | "engine" ->
        let* engine = Kernels.engine_of_string v in
        Ok { grid with engine }
      | "backend" ->
        let* backend = Graph.View.backend_of_string v in
        Ok { grid with backend }
      | key when List.mem key param_keys ->
        let* base = set_param grid.base key v in
        Ok { grid with base }
      | key -> Error (Printf.sprintf "unknown grid key %S" key))
    (Ok
       {
         name = "sweep";
         graphs = [];
         kernels = [];
         branchings = [ Cobra.Branching.cobra_k2 ];
         trials = 10;
         base = K.default_params;
         engine = `Scalar;
         backend = `Heap;
       })
    fields
  |> fun r -> Result.bind r validate

let load s =
  if Sys.file_exists s then
    match Json.of_file s with
    | Error msg -> Error (Printf.sprintf "%s: %s" s msg)
    | Ok doc -> (
      match of_json doc with
      | Error msg -> Error (Printf.sprintf "%s: %s" s msg)
      | Ok _ as ok -> ok)
  else if Filename.check_suffix s ".json" || not (String.contains s '=') then
    (* Every inline grid contains at least one '='; anything without one
       (or ending in .json) is a file path — report the missing file
       rather than a baffling inline-parse error. *)
    Error
      (Printf.sprintf
         "%s: no such file (inline grids look like \"graphs=...;kernels=...\")" s)
  else of_inline s

(* ---------- expansion ---------- *)

(* The execution engine and the topology backend are part of the
   campaign identity (lanes and scalar results differ draw-for-draw;
   backends produce identical streams but belong to distinct campaign
   configurations, and mixing them in one checkpoint would hide a
   backend regression), so both join the cell meta and a resume under a
   different engine or backend refuses to mix checkpoints. Scalar/heap
   grids omit the keys, keeping their meta — and thus their existing
   checkpoints — byte-identical to earlier versions. *)
let params_meta ?(engine = `Scalar) ?(backend = `Heap) trials base =
  let engine_field =
    match engine with
    | `Scalar -> []
    | `Lanes -> [ ("engine", Json.String (Kernels.engine_to_string engine)) ]
  in
  let backend_field =
    match backend with
    | `Heap -> []
    | (`Bigarray | `Implicit) as b ->
      [ ("backend", Json.String (Graph.View.backend_to_string b)) ]
  in
  (* [latent_rounds] arrived with the SEIR kernel, after checkpoints of
     the earlier meta shape already existed; grids at the default omit
     the key so those checkpoints keep their meta digests (the same
     convention engine/backend follow above). *)
  let latent_field =
    if base.K.latent_rounds = K.default_params.K.latent_rounds then []
    else [ ("latent_rounds", Json.Int base.K.latent_rounds) ]
  in
  Json.Obj
    (engine_field @ backend_field @ latent_field
    @ [
      ("trials", Json.Int trials);
      ("start", Json.Int base.K.start);
      ("walkers", Json.Int base.K.walkers);
      ("rate", Json.Float base.K.rate);
      ("horizon", Json.Float base.K.horizon);
      ("recovery", Json.Float base.K.recovery);
      ("persistent", Json.Bool base.K.persistent);
      ("infectious_rounds", Json.Int base.K.infectious_rounds);
      ("immune_rounds", Json.Int base.K.immune_rounds);
      ("cap", (match base.K.cap with Some c -> Json.Int c | None -> Json.Null));
    ])

(* ---------- the graph memo ----------

   A cell's graph is a pure function of (spec, backend, master): it is
   built from the stream tagged ["sweep:graph:" ^ spec], which no trial
   stream ([salt + i]) shares. So the cells of one [cells] call share a
   memo: concurrent cells of one key wait for a single build (views are
   immutable and safe to share across domains), and the graph released
   last stays parked for the next cell. The memo retains only the
   graphs running cells hold plus that one parked graph; it lives in the
   cells' closures and dies with the cell list. *)

type key = string * Graph.View.backend * int

type slot =
  | Building
  | Built of (Graph.View.t, string) result
  | Raised of exn * Printexc.raw_backtrace

type entry = { mutable slot : slot; mutable users : int }

type memo = {
  lock : Mutex.t;
  settled : Condition.t;
  live : (key, entry) Hashtbl.t;  (* keys some running cell holds *)
  mutable parked : (key * Graph.View.t) option;
}

(* Process-wide count of graph builds, for observation only: the memo
   never reads it. *)
let builds = Atomic.make 0

let graph_builds () = Atomic.get builds

let create_memo () =
  {
    lock = Mutex.create ();
    settled = Condition.create ();
    live = Hashtbl.create 4;
    parked = None;
  }

let build_graph ((spec_str, backend, master) : key) spec =
  Atomic.incr builds;
  let grng = Simkit.Seeds.tagged_rng ~master ~tag:("sweep:graph:" ^ spec_str) in
  Graph.Spec.build_view spec ~backend grng

(* Hold [key]'s entry once its slot is settled. The first holder takes
   the parked graph or builds it with the lock released; later holders
   wait until the slot leaves [Building]. *)
let acquire memo key build =
  Mutex.lock memo.lock;
  let entry, builder =
    match Hashtbl.find_opt memo.live key with
    | Some e ->
      e.users <- e.users + 1;
      (e, false)
    | None ->
      let slot, builder =
        match memo.parked with
        | Some (k, g) when k = key ->
          memo.parked <- None;
          (Built (Ok g), false)
        | _ -> (Building, true)
      in
      let e = { slot; users = 1 } in
      Hashtbl.replace memo.live key e;
      (e, builder)
  in
  if builder then begin
    Mutex.unlock memo.lock;
    let slot =
      match build () with
      | r -> Built r
      | exception exn -> Raised (exn, Printexc.get_raw_backtrace ())
    in
    Mutex.lock memo.lock;
    entry.slot <- slot;
    Condition.broadcast memo.settled
  end
  else
    while (match entry.slot with Building -> true | _ -> false) do
      Condition.wait memo.settled memo.lock
    done;
  Mutex.unlock memo.lock;
  entry

(* The last holder of a key parks its graph, dropping the one parked
   before; a failed build is dropped. *)
let release memo key entry =
  Mutex.lock memo.lock;
  entry.users <- entry.users - 1;
  if entry.users = 0 then begin
    Hashtbl.remove memo.live key;
    match entry.slot with
    | Built (Ok g) -> memo.parked <- Some (key, g)
    | Built (Error _) | Raised _ | Building -> ()
  end;
  Mutex.unlock memo.lock

let with_graph memo key ~build f =
  let entry = acquire memo key build in
  Fun.protect
    ~finally:(fun () -> release memo key entry)
    (fun () ->
      match entry.slot with
      | Built r -> f r
      | Raised (exn, bt) -> Printexc.raise_with_backtrace exn bt
      | Building -> assert false)

(* One cell's payload: [trials] kernel runs on the streams
   [salt + 0 .. salt + trials - 1] — pure in [(master, salt)], which is
   what makes checkpoints reusable across interrupted runs. The engine
   only changes how those trials execute ([Kernels.run_trials]);
   aggregation walks the outcomes in trial order either way, so the
   scalar path reproduces the historical per-trial loop draw-for-draw. *)
let cell_payload ~spec_str ~kernel ~branching ~trials ~base ~engine ~master ~salt g =
  let params = { base with K.branching } in
  let completed = ref 0 in
  let rounds = Stats.Summary.create () in
  let obs_keys = ref [] in
  let obs : (string, Stats.Summary.t) Hashtbl.t = Hashtbl.create 8 in
  let outcomes =
    Kernels.run_trials ~engine kernel g params ~trials ~master ~salt0:salt
  in
  Array.iter
    (fun o ->
      if o.K.completed then begin
        incr completed;
        Stats.Summary.add_int rounds o.K.rounds
      end;
      List.iter
        (fun (key, v) ->
          let s =
            match Hashtbl.find_opt obs key with
            | Some s -> s
            | None ->
              let s = Stats.Summary.create () in
              Hashtbl.add obs key s;
              obs_keys := key :: !obs_keys;
              s
          in
          Stats.Summary.add s v)
        o.K.observations)
    outcomes;
  let rounds_json =
    if !completed = 0 then Json.Null
    else
      Json.Obj
        [
          ("mean", Json.Float (Stats.Summary.mean rounds));
          ("min", Json.Float (Stats.Summary.min rounds));
          ("max", Json.Float (Stats.Summary.max rounds));
          ( "sd",
            Json.Float
              (if Stats.Summary.count rounds >= 2 then Stats.Summary.stddev rounds
               else 0.0) );
        ]
  in
  let obs_json =
    List.sort compare !obs_keys
    |> List.map (fun key ->
           (key, Json.Float (Stats.Summary.mean (Hashtbl.find obs key))))
  in
  Json.Obj
    [
      ("graph", Json.String spec_str);
      ("n", Json.Int (Graph.View.n_vertices g));
      ("kernel", Json.String kernel.K.name);
      ("branching", Json.String (Cobra.Branching.to_arg branching));
      ("trials", Json.Int trials);
      ("completed", Json.Int !completed);
      ("censored", Json.Int (trials - !completed));
      ("rounds", rounds_json);
      ("observations", Json.Obj obs_json);
    ]

let run_cell memo ~spec ~kernel ~branching ~trials ~base ~engine ~backend
    ~address ~master ~salt =
  let spec_str = Graph.Spec.to_string spec in
  let key = (spec_str, backend, master) in
  with_graph memo key ~build:(fun () -> build_graph key spec) (function
    | Error msg -> failwith (Printf.sprintf "%s: graph build failed: %s" address msg)
    | Ok g ->
      cell_payload ~spec_str ~kernel ~branching ~trials ~base ~engine ~master
        ~salt g)

let cells grid =
  let memo = create_memo () in
  let cells = ref [] in
  let index = ref 0 in
  List.iter
    (fun spec ->
      List.iter
        (fun kernel ->
          List.iter
            (fun branching ->
              (* Canonical address via Cellid so reserved characters are
                 rejected rather than silently producing an ambiguous
                 address; renders as "g=<spec>;k=<kernel>;b=<branching>",
                 byte-identical to the historical sprintf. *)
              let address =
                Simkit.Cellid.address_of_parts
                  [
                    ("g", Graph.Spec.to_string spec);
                    ("k", kernel.K.name);
                    ("b", Cobra.Branching.to_arg branching);
                  ]
              in
              let meta =
                [
                  ("graph", Json.String (Graph.Spec.to_string spec));
                  ("kernel", Json.String kernel.K.name);
                  ("branching", Json.String (Cobra.Branching.to_arg branching));
                  ( "params",
                    params_meta ~engine:grid.engine ~backend:grid.backend
                      grid.trials grid.base );
                ]
              in
              let cell =
                {
                  Simkit.Campaign.index = !index;
                  address;
                  meta;
                  run =
                    (fun ~master ~salt ->
                      run_cell memo ~spec ~kernel ~branching ~trials:grid.trials
                        ~base:grid.base ~engine:grid.engine
                        ~backend:grid.backend ~address ~master ~salt);
                }
              in
              incr index;
              cells := cell :: !cells)
            grid.branchings)
        grid.kernels)
    grid.graphs;
  List.rev !cells
