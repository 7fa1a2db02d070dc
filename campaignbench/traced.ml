(* The traced campaign: the composition [Simkit.Campaign.run] performs
   (plan, execute every pending cell over the pool, finalize, with one
   event-log line per step), driven here through the same public
   functions with a span around each call. Each cell's payload is
   recomputed by [run_cell], which makes the calls [Sweep.Grid]'s cell
   makes (graph build on the spec-tagged stream, trials on the
   address-derived salts, aggregation) one at a time so each gets its
   own span. The caller checks that the manifest this writes is
   byte-identical to the untraced [Campaign.run]'s, which pins the
   recomputation to the library's. *)

module K = Cobra.Kernel
module Json = Simkit.Json
module Campaign = Simkit.Campaign
module Cellstore = Simkit.Cellstore

(* Cell coordinates in [Sweep.Grid.cells] order: graphs outermost, then
   kernels, then branchings (the order grid.mli documents). *)
let coordinates (grid : Sweep.Grid.t) =
  List.concat_map
    (fun spec ->
      List.concat_map
        (fun kernel -> List.map (fun b -> (spec, kernel, b)) grid.branchings)
        grid.kernels)
    grid.graphs

(* The two graph families whose per-round kernel cost is reported. *)
let family spec_str =
  let starts p = String.length spec_str >= String.length p
                 && String.sub spec_str 0 (String.length p) = p in
  if starts "ba:" then Some "ba"
  else if starts "random-regular:" && Filename.check_suffix spec_str "x4" then Some "rr4"
  else None

let aggregate ~spec_str ~(g : Graph.View.t) ~(kernel : K.t) ~branching ~trials
    (outcomes : K.outcome array) =
  let completed = ref 0 in
  let rounds = Stats.Summary.create () in
  let obs_keys = ref [] in
  let obs : (string, Stats.Summary.t) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (o : K.outcome) ->
      if o.completed then begin
        incr completed;
        Stats.Summary.add_int rounds o.rounds
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
        o.observations)
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
    |> List.map (fun key -> (key, Json.Float (Stats.Summary.mean (Hashtbl.find obs key))))
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

let run_cell tr (grid : Sweep.Grid.t) ~cell (spec, kernel, branching) ~master ~salt =
  let spec_str = Graph.Spec.to_string spec in
  let grng = Simkit.Seeds.tagged_rng ~master ~tag:("sweep:graph:" ^ spec_str) in
  let built =
    Tracer.span tr ~cell ~parent:"cell.run" "graph.build" (fun () ->
        Graph.Spec.build_view spec ~backend:grid.backend grng)
  in
  match built with
  | Error msg -> failwith (Printf.sprintf "%s: graph build failed: %s" spec_str msg)
  | Ok g ->
    Tracer.note_distinct tr spec_str;
    let params = { grid.base with K.branching } in
    let trials = grid.trials in
    let outcomes, dt =
      Tracer.timed tr ~cell ~parent:"cell.run" "kernel.trials" (fun () ->
          Sweep.Kernels.run_trials ~engine:grid.engine kernel g params ~trials
            ~master ~salt0:salt)
    in
    let rounds = Array.fold_left (fun acc (o : K.outcome) -> acc + o.rounds) 0 outcomes in
    let censored =
      Array.fold_left (fun acc (o : K.outcome) -> if o.completed then acc else acc + 1) 0 outcomes
    in
    Tracer.add tr "graph.builds" 1.0;
    Tracer.add tr "kernel.trials" (float_of_int trials);
    Tracer.add tr "kernel.rounds" (float_of_int rounds);
    Tracer.add tr "kernel.censored" (float_of_int censored);
    if grid.engine = `Lanes && Sweep.Kernels.lanes_capable kernel params then
      Tracer.add tr "kernel.sliced" (float_of_int trials);
    Option.iter
      (fun fam ->
        Tracer.add tr ("kernel.cells." ^ fam) 1.0;
        Tracer.add tr ("kernel.s." ^ fam) dt;
        Tracer.add tr ("kernel.rounds." ^ fam) (float_of_int rounds))
      (family spec_str);
    Tracer.span tr ~cell ~parent:"cell.run" "sweep.aggregate" (fun () ->
        aggregate ~spec_str ~g ~kernel ~branching ~trials outcomes)

(* Runs the campaign in [config.dir] with spans around every layer call
   and returns the manifest path. With [config.cache] set, the cache
   lookup and store happen here, around [run_cell], and [execute_cell]
   runs on a cache-less copy of the plan: the record it writes is the
   same, because a cell record never says where its payload came from. *)
let campaign tr (config : Campaign.config) (grid : Sweep.Grid.t) =
  let cells = Sweep.Grid.cells grid in
  let coords = Array.of_list (coordinates grid) in
  match
    Tracer.span tr "campaign.plan" (fun () -> Campaign.plan config ~name:grid.name ~cells)
  with
  | Error _ as e -> e
  | Ok plan ->
    let bare = { plan with Campaign.p_config = { config with cache = None } } in
    let events =
      Simkit.Eventlog.open_ ~path:(Filename.concat config.dir "events.jsonl")
    in
    let mu = Mutex.create () in
    let emit e =
      Tracer.span tr ~parent:"campaign" "eventlog.append" (fun () ->
          Simkit.Eventlog.append events (Campaign.event_to_json e))
    in
    let pending = Array.of_list plan.p_pending in
    let n = Array.length pending in
    emit
      (Campaign.Started
         { name = grid.name; total = List.length cells; pending = n; reused = 0; corrupted = 0 });
    let t0 = Tracer.now_ns () in
    let finished = ref 0 and ran = ref 0 and cached = ref 0 in
    let execute i =
      let c = pending.(i) in
      let cell = c.Campaign.index in
      let id = Campaign.cellid c in
      let hit = ref false in
      let compute ~master ~salt =
        Tracer.span tr ~cell ~parent:"campaign.execute_cell" "cell.run" (fun () ->
            run_cell tr grid ~cell coords.(cell) ~master ~salt)
      in
      let run ~master ~salt =
        match config.cache with
        | None -> compute ~master ~salt
        | Some store -> (
          match
            Tracer.span tr ~cell ~parent:"campaign.execute_cell" "cellstore.find"
              (fun () -> Cellstore.find store ~master id)
          with
          | Some payload ->
            hit := true;
            payload
          | None ->
            let payload = compute ~master ~salt in
            Tracer.span tr ~cell ~parent:"campaign.execute_cell" "cellstore.put"
              (fun () -> Cellstore.put store ~master id payload);
            payload)
      in
      ignore
        (Tracer.span tr ~cell ~parent:"pool.run" "campaign.execute_cell" (fun () ->
             Campaign.execute_cell bare { c with run }));
      Mutex.lock mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mu)
        (fun () ->
          incr finished;
          if !hit then incr cached else incr ran;
          let elapsed = Tracer.seconds_since t0 in
          let rate = if elapsed > 0.0 then float_of_int !finished /. elapsed else 0.0 in
          emit
            (Campaign.Cell_done
               {
                 index = cell;
                 address = c.Campaign.address;
                 cached = !hit;
                 done_ = !finished;
                 of_ = n;
                 elapsed_s = elapsed;
                 cells_per_s = rate;
                 eta_s = (if rate > 0.0 then float_of_int (n - !finished) /. rate else 0.0);
               }))
    in
    Simkit.Pool.with_pool ~domains:(Option.value config.domains ~default:1) (fun pool ->
        Tracer.span tr ~parent:"campaign" "pool.run" (fun () ->
            Simkit.Pool.run pool ~n execute));
    let manifest = Tracer.span tr "campaign.finalize" (fun () -> Campaign.finalize plan) in
    emit
      (Campaign.Finished
         { ran = !ran; cached = !cached; reused = 0; corrupted = 0; remaining = 0; manifest });
    Simkit.Eventlog.close events;
    (match manifest with
    | Some path -> Ok path
    | None -> Error "traced campaign left cells without a record")

(* Re-encodes every JSON artifact the campaign wrote (grid, cell records,
   manifest) through [Simkit.Json], timing only the encode, and checks
   the bytes come back identical. Returns the number of mismatches. *)
let json_replay tr dir =
  let files =
    "grid.json" :: "manifest.json"
    :: (Sys.readdir (Filename.concat dir "cells")
       |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".json")
       |> List.sort compare
       |> List.map (Filename.concat "cells"))
  in
  List.fold_left
    (fun bad rel ->
      let path = Filename.concat dir rel in
      let text = In_channel.with_open_bin path In_channel.input_all in
      Tracer.add tr "campaign.bytes_written" (float_of_int (String.length text));
      match Json.of_string text with
      | Error _ -> bad + 1
      | Ok doc ->
        let is_cell = rel <> "grid.json" && rel <> "manifest.json" in
        let again =
          if is_cell then begin
            Tracer.add tr "json.bytes" (float_of_int (String.length text));
            Tracer.span tr ~parent:"campaign.execute_cell" "json.encode" (fun () ->
                Json.to_string ~pretty:true doc ^ "\n")
          end
          else Json.to_string ~pretty:true doc ^ "\n"
        in
        if again = text then bad else bad + 1)
    0 files
