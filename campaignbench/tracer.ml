(* Spans and counters recorded by the benchmark around its own calls into
   each layer of the library. Nothing here runs inside the library: a
   span brackets a public call ([Graph.Spec.build_view],
   [Sweep.Kernels.run_trials], [Simkit.Campaign.execute_cell], ...), so
   a traced campaign executes exactly the code an untraced one does.

   Spans live in memory (appends are serialised by one mutex, because the
   pool records them from several domains) and are written out as JSON
   lines once the run ends. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type span = {
  name : string;
  cell : int;  (** cell index the span belongs to; -1 for campaign-wide spans *)
  parent : string;  (** the span that caused this one; "" at the root *)
  t0 : int64;
  t1 : int64;
}

type t = {
  mu : Mutex.t;
  mutable spans : span list;
  counters : (string, float) Hashtbl.t;
  distinct : (string, unit) Hashtbl.t;
}

let create () =
  {
    mu = Mutex.create ();
    spans = [];
    counters = Hashtbl.create 32;
    distinct = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* [timed t name f] runs [f ()], records its span and also returns the
   span's duration in seconds. A raising [f] records nothing. *)
let timed t ?(cell = -1) ?(parent = "") name f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  locked t (fun () -> t.spans <- { name; cell; parent; t0; t1 } :: t.spans);
  (r, Int64.to_float (Int64.sub t1 t0) *. 1e-9)

let span t ?cell ?parent name f = fst (timed t ?cell ?parent name f)

let add t name v =
  locked t (fun () ->
      let prev = Option.value (Hashtbl.find_opt t.counters name) ~default:0.0 in
      Hashtbl.replace t.counters name (prev +. v))

let note_distinct t key = locked t (fun () -> Hashtbl.replace t.distinct key ())

let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.0

let distinct t = Hashtbl.length t.distinct

let duration s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

(* Total seconds and number of spans named [name]. *)
let total t name =
  List.fold_left
    (fun (sum, n) s -> if s.name = name then (sum +. duration s, n + 1) else (sum, n))
    (0.0, 0) t.spans

(* Wall-clock extent of the spans named [name]: last end minus first start. *)
let extent t name =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) s ->
        if s.name = name then (min lo s.t0, max hi s.t1) else (lo, hi))
      (Int64.max_int, Int64.min_int) t.spans
  in
  if lo > hi then 0.0 else Int64.to_float (Int64.sub hi lo) *. 1e-9

let append_jsonl t ~path ~campaign =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Simkit.Json.to_string
               (Simkit.Json.Obj
                  [
                    ("campaign", Simkit.Json.String campaign);
                    ("span", Simkit.Json.String s.name);
                    ("cell", Simkit.Json.Int s.cell);
                    ("parent", Simkit.Json.String s.parent);
                    ("t0_ns", Simkit.Json.String (Int64.to_string s.t0));
                    ("t1_ns", Simkit.Json.String (Int64.to_string s.t1));
                  ]));
          output_char oc '\n')
        (List.rev t.spans))
