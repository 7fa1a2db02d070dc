(* Tests for the campaign service: the cobra.rpc/1 protocol shapes and
   an in-process daemon driven end-to-end through the client — including
   the acceptance properties: daemon output byte-identical to the batch
   sweep path, and a resubmission over the shared cache completing with
   zero recomputed cells. *)

module Json = Simkit.Json
module Protocol = Serve.Protocol
module Daemon = Serve.Daemon
module Client = Serve.Client

let check = Alcotest.check

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_test_%d_%d" (Unix.getpid ()) !counter)

(* ---------- protocol ---------- *)

let requests =
  [
    Protocol.Submit
      {
        client = "alice";
        grid = `Inline "name=g;graphs=cycle:8;kernels=cobra;trials=2";
        out = "/tmp/out";
        master = 42;
        resume = true;
      };
    Protocol.Submit
      {
        client = "bob";
        grid = `Doc (Json.Obj [ ("schema", Json.String "cobra.sweep-grid/1") ]);
        out = "o";
        master = 0;
        resume = false;
      };
    Protocol.Status { job = "job-000001" };
    Protocol.Events { job = "job-000002" };
    Protocol.Cancel { job = "job-000003" };
    Protocol.Stats;
    Protocol.Shutdown;
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      (* Through the actual wire representation: print, reparse. *)
      let line = Json.to_string (Protocol.request_to_json req) in
      match Json.of_string line with
      | Error msg -> Alcotest.failf "wire line does not reparse: %s" msg
      | Ok doc -> (
        match Protocol.request_of_json doc with
        | Error msg -> Alcotest.failf "round-trip failed on %s: %s" line msg
        | Ok req' -> check Alcotest.bool ("round-trips: " ^ line) true (req = req')))
    requests

let test_request_rejects_malformed () =
  let bad =
    [
      Json.String "nope";
      Json.Obj [ ("op", Json.String "teleport") ];
      Json.Obj [ ("op", Json.String "status") ];
      Json.Obj [ ("op", Json.String "submit"); ("client", Json.String "c") ];
      (* both grid forms at once *)
      Json.Obj
        [
          ("op", Json.String "submit");
          ("client", Json.String "c");
          ("out", Json.String "o");
          ("master", Json.Int 1);
          ("grid", Json.String "g");
          ("grid_json", Json.Obj []);
        ];
    ]
  in
  List.iter
    (fun doc ->
      match Protocol.request_of_json doc with
      | Ok _ -> Alcotest.failf "accepted malformed request %s" (Json.to_string doc)
      | Error _ -> ())
    bad

let test_error_kinds_roundtrip () =
  List.iter
    (fun kind ->
      match Protocol.error_kind_of_string (Protocol.error_kind_to_string kind) with
      | Ok kind' -> check Alcotest.bool "kind round-trips" true (kind = kind')
      | Error msg -> Alcotest.fail msg)
    [
      Protocol.Bad_request; Protocol.Unknown_job; Protocol.Quota_exceeded;
      Protocol.Busy; Protocol.Grid_error; Protocol.Server_error;
    ]

let test_response_shapes () =
  let ok = Protocol.ok_response [ ("job", Json.String "j") ] in
  check Alcotest.bool "ok is a response" true (Protocol.is_response ok);
  check Alcotest.bool "ok has no error" true (Protocol.response_error ok = None);
  let err = Protocol.error_response Protocol.Quota_exceeded "too many" in
  check Alcotest.bool "error is a response" true (Protocol.is_response err);
  (match Protocol.response_error err with
  | Some (Protocol.Quota_exceeded, "too many") -> ()
  | _ -> Alcotest.fail "typed error did not round-trip");
  (* Event lines carry no rpc marker. *)
  let event =
    Simkit.Campaign.event_to_json
      (Simkit.Campaign.Started
         { name = "x"; total = 1; pending = 1; reused = 0; corrupted = 0 })
  in
  check Alcotest.bool "events are not responses" false (Protocol.is_response event)

(* ---------- daemon end-to-end ---------- *)

let grid = "name=serve;graphs=cycle:12,complete:8;kernels=cobra,sis;trials=3"
let n_cells = 4

let with_daemon ?(config = fun c -> c) f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "d.sock" in
  let cache = Filename.concat dir "cache" in
  let base = Daemon.default_config ~socket in
  let cfg = config { base with Daemon.cache = Some cache; domains = Some 2 } in
  let result = ref (Error "daemon did not run") in
  let th = Thread.create (fun () -> result := Daemon.run cfg) () in
  (* Wait for the socket to come up. *)
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if not (Sys.file_exists socket) then (Thread.delay 0.02; wait (n - 1))
  in
  wait 250;
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.request ~socket Protocol.Shutdown);
      Thread.join th;
      match !result with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "daemon exited with: %s" msg)
    (fun () -> f ~socket ~dir)

let int_field doc k =
  match Json.member k doc with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "response has no int field %S" k

let str_field doc k =
  match Option.bind (Json.member k doc) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response has no string field %S" k

let submit_and_watch ~socket ~out ?(client = "tester") ?(resume = false) () =
  let s = { Protocol.client; grid = `Inline grid; out; master = 9; resume } in
  match Client.request ~socket (Protocol.Submit s) with
  | Error msg -> Alcotest.fail msg
  | Ok doc -> (
    let job = str_field doc "job" in
    let events = ref [] in
    match Client.watch ~socket ~job (fun e -> events := e :: !events) with
    | Error msg -> Alcotest.fail msg
    | Ok final -> (job, final, List.rev !events))

let test_submit_matches_batch_sweep () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "job-out" in
      let job, final, events = submit_and_watch ~socket ~out () in
      check Alcotest.string "status done" "done" (str_field final "status");
      check Alcotest.int "all cells ran" n_cells (int_field final "ran");
      check Alcotest.int "none cached on first contact" 0
        (int_field final "cached");
      (* The event stream is complete: started .. cell xN .. finished. *)
      (match (List.hd events, List.rev events |> List.hd) with
      | Simkit.Campaign.Started { total; _ }, Simkit.Campaign.Finished { remaining; _ }
        ->
        check Alcotest.int "started total" n_cells total;
        check Alcotest.int "finished remaining" 0 remaining
      | _ -> Alcotest.fail "stream does not start/end correctly");
      check Alcotest.int "one cell event per cell" n_cells
        (List.length
           (List.filter
              (function Simkit.Campaign.Cell_done _ -> true | _ -> false)
              events));
      (* Byte-identity with the batch path (no daemon, no cache). *)
      let batch = Filename.concat dir "batch-out" in
      let cells =
        match Sweep.Grid.of_inline grid with
        | Ok g -> Sweep.Grid.cells g
        | Error msg -> Alcotest.fail msg
      in
      (match
         Simkit.Campaign.run
           {
             Simkit.Campaign.dir = batch;
             master = 9;
             resume = false;
             max_cells = None;
             domains = Some 1;
             cache = None;
             progress = ignore;
           }
           ~name:"serve" ~cells
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      check Alcotest.string "manifest byte-identical to batch sweep"
        (read_file (Filename.concat batch "manifest.json"))
        (read_file (Filename.concat out "manifest.json"));
      List.iter
        (fun c ->
          let f = Printf.sprintf "cells/cell_%05d.json" c.Simkit.Campaign.index in
          check Alcotest.string ("cell byte-identical: " ^ f)
            (read_file (Filename.concat batch f))
            (read_file (Filename.concat out f)))
        cells;
      ignore job)

let test_resubmission_is_all_cache_hits () =
  with_daemon (fun ~socket ~dir ->
      let out_a = Filename.concat dir "a" and out_b = Filename.concat dir "b" in
      let _, final_a, _ = submit_and_watch ~socket ~out:out_a () in
      check Alcotest.int "first submission computes" n_cells
        (int_field final_a "ran");
      (* Identical work, different directory: served from the store. *)
      let _, final_b, _ = submit_and_watch ~socket ~out:out_b () in
      check Alcotest.string "second submission completes" "done"
        (str_field final_b "status");
      check Alcotest.int "second submission computes nothing" 0
        (int_field final_b "ran");
      check Alcotest.int "second submission is all cache hits" n_cells
        (int_field final_b "cached");
      check Alcotest.string "artifacts byte-identical"
        (read_file (Filename.concat out_a "manifest.json"))
        (read_file (Filename.concat out_b "manifest.json"));
      (* stats agrees: n_cells misses then n_cells hits. *)
      match Client.request ~socket Protocol.Stats with
      | Error msg -> Alcotest.fail msg
      | Ok stats ->
        let cache =
          match Json.member "cache" stats with
          | Some c -> c
          | None -> Alcotest.fail "stats has no cache section"
        in
        check Alcotest.int "cache hits" n_cells (int_field cache "hits");
        check Alcotest.int "cache puts" n_cells (int_field cache "puts"))

let expect_error ~kind result =
  match result with
  | Ok _ -> Alcotest.failf "expected %s" (Protocol.error_kind_to_string kind)
  | Error msg ->
    check Alcotest.bool
      (Printf.sprintf "error %S carries kind %s" msg
         (Protocol.error_kind_to_string kind))
      true
      (String.length msg >= String.length (Protocol.error_kind_to_string kind)
      && String.sub msg 0 (String.length (Protocol.error_kind_to_string kind))
         = Protocol.error_kind_to_string kind)

let test_quota_and_error_kinds () =
  with_daemon
    ~config:(fun c -> { c with Daemon.max_cells_per_submit = 2 })
    (fun ~socket ~dir ->
      (* Over the per-submission cell quota: typed refusal. *)
      expect_error ~kind:Protocol.Quota_exceeded
        (Client.request ~socket
           (Protocol.Submit
              {
                client = "greedy";
                grid = `Inline grid;
                out = Filename.concat dir "q";
                master = 9;
                resume = false;
              }));
      (* A broken grid: typed grid error. *)
      expect_error ~kind:Protocol.Grid_error
        (Client.request ~socket
           (Protocol.Submit
              {
                client = "c";
                grid = `Inline "name=x;kernels=imaginary;graphs=cycle:8";
                out = Filename.concat dir "g";
                master = 9;
                resume = false;
              }));
      (* Unknown job ids: typed refusal on every job-addressed op. *)
      expect_error ~kind:Protocol.Unknown_job
        (Client.request ~socket (Protocol.Status { job = "job-999999" }));
      expect_error ~kind:Protocol.Unknown_job
        (Client.request ~socket (Protocol.Cancel { job = "job-999999" })))

let test_inflight_quota () =
  with_daemon
    ~config:(fun c -> { c with Daemon.max_inflight_per_client = n_cells })
    (fun ~socket ~dir ->
      (* First submission fits the quota exactly and completes. *)
      let _, final, _ = submit_and_watch ~socket ~out:(Filename.concat dir "a") () in
      check Alcotest.string "fits quota" "done" (str_field final "status");
      (* Finished jobs hold no quota: the same client may submit again. *)
      let _, final2, _ =
        submit_and_watch ~socket ~out:(Filename.concat dir "b") ()
      in
      check Alcotest.string "quota released" "done" (str_field final2 "status"))

let test_interrupted_then_resubmitted () =
  (* An interrupted campaign (simulated: a batch sweep stopped after 2
     cells) resubmitted to the daemon with resume completes and matches
     the uninterrupted artifacts byte-for-byte. *)
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "partial" in
      let cells =
        match Sweep.Grid.of_inline grid with
        | Ok g -> Sweep.Grid.cells g
        | Error msg -> Alcotest.fail msg
      in
      (match
         Simkit.Campaign.run
           {
             Simkit.Campaign.dir = out;
             master = 9;
             resume = false;
             max_cells = Some 2;
             domains = Some 1;
             cache = None;
             progress = ignore;
           }
           ~name:"serve" ~cells
       with
      | Ok r -> check Alcotest.int "interrupted" 2 r.Simkit.Campaign.remaining
      | Error msg -> Alcotest.fail msg);
      let _, final, _ = submit_and_watch ~socket ~out ~resume:true () in
      check Alcotest.string "resumed to done" "done" (str_field final "status");
      check Alcotest.int "reused the checkpoints" 2 (int_field final "reused");
      check Alcotest.int "ran only the rest" 2 (int_field final "ran");
      (* Reference: uninterrupted batch run. *)
      let ref_dir = Filename.concat dir "reference" in
      (match
         Simkit.Campaign.run
           {
             Simkit.Campaign.dir = ref_dir;
             master = 9;
             resume = false;
             max_cells = None;
             domains = Some 1;
             cache = None;
             progress = ignore;
           }
           ~name:"serve" ~cells
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      check Alcotest.string "manifest byte-identical after daemon resume"
        (read_file (Filename.concat ref_dir "manifest.json"))
        (read_file (Filename.concat out "manifest.json")))

let test_resume_without_flag_is_refused () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "once" in
      let _, final, _ = submit_and_watch ~socket ~out () in
      check Alcotest.string "first is done" "done" (str_field final "status");
      (* Same directory, no resume: the campaign layer refuses, and the
         daemon surfaces it as a typed grid error. *)
      expect_error ~kind:Protocol.Grid_error
        (Client.request ~socket
           (Protocol.Submit
              {
                client = "tester";
                grid = `Inline grid;
                out;
                master = 9;
                resume = false;
              })))

let test_cancel_and_status () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "c" in
      let _, final, _ = submit_and_watch ~socket ~out () in
      let job = str_field final "job" in
      (* Cancelling a finished job is a no-op with a truthful status. *)
      match Client.request ~socket (Protocol.Cancel { job }) with
      | Error msg -> Alcotest.fail msg
      | Ok doc -> (
        check Alcotest.string "terminal state survives cancel" "done"
          (str_field doc "status");
        match Client.request ~socket (Protocol.Status { job }) with
        | Error msg -> Alcotest.fail msg
        | Ok doc ->
          check Alcotest.string "status agrees" "done" (str_field doc "status");
          check Alcotest.int "status reports all cells" n_cells
            (int_field doc "done")))

(* A request line written straight to the socket, for lines no
   [Protocol.request] can produce; returns the reply line, or [None]
   when the daemon closes without one. *)
let raw_request ~socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      output_string oc (line ^ "\n");
      flush oc;
      try Some (input_line ic) with End_of_file -> None)

let test_malformed_lines_get_bad_request () =
  with_daemon (fun ~socket ~dir:_ ->
      List.iter
        (fun line ->
          match raw_request ~socket line with
          | None -> Alcotest.failf "%S: connection dropped without a reply" line
          | Some reply -> (
            match Json.of_string reply with
            | Error msg -> Alcotest.failf "%S: reply is not JSON: %s" line msg
            | Ok doc -> (
              match Protocol.response_error doc with
              | Some (Protocol.Bad_request, _) -> ()
              | _ -> Alcotest.failf "%S: expected bad-request, got %s" line reply)))
        [ "-"; {|{"op":-}|}; "+"; "{"; "" ];
      (* The daemon still serves well-formed requests afterwards. *)
      match Client.request ~socket Protocol.Stats with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg)

(* A finished job's status reply, pinned byte-for-byte: the daemon drops
   a job's plan when it finishes, and the reused and corrupted counts it
   reports must not move with it. The job resumes a campaign with one
   good and one corrupt checkpoint (whose bytes are ["-"]). *)
let test_finished_status_bytes () =
  with_daemon (fun ~socket ~dir ->
      let out = Filename.concat dir "resumed" in
      let cells =
        match Sweep.Grid.of_inline grid with
        | Ok g -> Sweep.Grid.cells g
        | Error msg -> Alcotest.fail msg
      in
      (match
         Simkit.Campaign.run
           {
             Simkit.Campaign.dir = out;
             master = 9;
             resume = false;
             max_cells = Some 2;
             domains = Some 1;
             cache = None;
             progress = ignore;
           }
           ~name:"serve" ~cells
       with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      let oc = open_out_bin (Filename.concat out "cells/cell_00001.json") in
      output_string oc "-";
      close_out oc;
      let job, final, _ = submit_and_watch ~socket ~out ~resume:true () in
      let real = Unix.realpath out in
      let expected =
        Json.to_string
          (Protocol.ok_response
             [
               ("job", Json.String job);
               ("client", Json.String "tester");
               ("campaign", Json.String "serve");
               ("dir", Json.String real);
               ("status", Json.String "done");
               ("total", Json.Int n_cells);
               ("pending", Json.Int 3);
               ("done", Json.Int 3);
               ("ran", Json.Int 3);
               ("cached", Json.Int 0);
               ("reused", Json.Int 1);
               ("corrupted", Json.Int 1);
               ("remaining", Json.Int 0);
               ("manifest", Json.String (Filename.concat real "manifest.json"));
             ])
      in
      check Alcotest.string "final watch reply" expected (Json.to_string final);
      (* Later status calls, after the job released its plan, agree. *)
      match Client.request ~socket (Protocol.Status { job }) with
      | Error msg -> Alcotest.fail msg
      | Ok doc -> check Alcotest.string "status reply" expected (Json.to_string doc))

let stats_jobs ~socket =
  match Client.request ~socket Protocol.Stats with
  | Error msg -> Alcotest.fail msg
  | Ok doc -> (
    match Json.member "jobs" doc with
    | Some (Json.List jobs) -> jobs
    | _ -> Alcotest.fail "stats has no jobs list")

(* At one domain every batch holds one cell. Two concurrent jobs must
   both make progress before either finishes: a job submitted second is
   not parked behind the first one's whole queue. *)
let test_one_domain_jobs_interleave () =
  with_daemon
    ~config:(fun c -> { c with Daemon.domains = Some 1 })
    (fun ~socket ~dir ->
      let big =
        "name=fair;graphs=cycle:48,cycle:64,cycle:80,cycle:96;\
         kernels=cobra,bips,sis,push,pull,coalesce;trials=40"
      in
      let submit name master =
        match
          Client.submit ~socket
            {
              Protocol.client = name;
              grid = `Inline big;
              out = Filename.concat dir name;
              master;
              resume = false;
            }
        with
        | Ok job -> job
        | Error msg -> Alcotest.fail msg
      in
      let a = submit "a" 1 in
      let b = submit "b" 2 in
      let snapshot () =
        let jobs = stats_jobs ~socket in
        let find id =
          match List.find_opt (fun j -> str_field j "job" = id) jobs with
          | Some j -> (int_field j "done", str_field j "status")
          | None -> Alcotest.failf "stats lost job %s" id
        in
        (find a, find b)
      in
      let running s = s = "queued" || s = "running" in
      let rec poll () =
        let ((done_a, st_a), (done_b, st_b)) as snap = snapshot () in
        if (done_a > 0 && done_b > 0) || not (running st_a && running st_b) then
          snap
        else (Thread.delay 0.002; poll ())
      in
      let (done_a, st_a), (done_b, st_b) = poll () in
      check Alcotest.bool
        (Printf.sprintf "both jobs progress before either finishes (a: %d %s, b: %d %s)"
           done_a st_a done_b st_b)
        true
        (done_a > 0 && done_b > 0 && running st_a && running st_b);
      List.iter
        (fun job ->
          match Client.watch ~socket ~job ignore with
          | Ok final -> check Alcotest.string "job done" "done" (str_field final "status")
          | Error msg -> Alcotest.fail msg)
        [ a; b ])

(* ---------- totality of the text entry points ----------

   Every parser a user's bytes reach returns [Ok] or [Error] and never
   raises: JSON documents, RPC requests, grid files and inline grids
   (through cell expansion), graph specs, cell ids and addresses. The
   inputs are mutations of a corpus of valid inputs and of tokens that
   once escaped as exceptions ("-", "{\"op\":-}", ...), drawn from a
   fixed seed so a failure reproduces. *)

let totality_corpus =
  [
    "-"; "+"; "-e"; "1e400"; "-1e400"; "{\"a\":-}"; "{\"op\":-}"; "[-]"; "{\"schema\":";
    "";
    "{\"op\":\"submit\",\"client\":\"c\",\"out\":\"/tmp/o\",\"master\":7,\
     \"resume\":false,\"grid\":\"graphs=cycle:8;kernels=cobra;trials=2\"}";
    "{\"op\":\"status\",\"job\":1}";
    "{\"op\":\"events\",\"job\":2}";
    "{\"op\":\"stats\"}";
    "{\"schema\":\"cobra.sweep-grid/1\",\"name\":\"g\",\"graphs\":[\"cycle:12\",\
     \"ba:24,2\"],\"kernels\":[\"cobra\",\"rwalk\"],\"branching\":[\"k=2\"],\
     \"trials\":3,\"params\":{\"walkers\":3,\"rate\":1.5,\"persistent\":true}}";
    "name=smoke;graphs=cycle:12,complete:8,ba:24x2;kernels=cobra,bips,sis,seir;trials=3";
    "graphs=random-regular:32x4;kernels=push,pull,push-pull;backend=bigarray;engine=lanes;cap=9";
    "graphs=torus:4x4;kernels=rwalk;walkers=3;branching=1+0.5;start=-1";
    "random-regular:64x4"; "ba:24,2,0.5"; "circulant:9:1+2"; "torus:3x4x5"; "er:10:0.5";
    "0123456789abcdef0123456789abcdef:g=cycle:8;k=cobra;b=k=2";
    "g=cycle:8;k=cobra;b=k=2";
  ]

let totality_alphabet = "-+e.0123456789:;,=x{}[]\"\\ \nabkgnu"

(* A few random edits of a random corpus entry: insert, delete or
   replace a character, repeat or truncate a slice, or splice in
   another entry. *)
let mutate_gen =
  let open QCheck.Gen in
  let corpus = Array.of_list totality_corpus in
  let edit s =
    let n = String.length s in
    let* pos = int_bound n in
    let* c = map (String.get totality_alphabet) (int_bound (String.length totality_alphabet - 1)) in
    let* len = int_bound 8 in
    let* other = oneofa corpus in
    let before = String.sub s 0 pos and after = String.sub s pos (n - pos) in
    let tail = if after = "" then "" else String.sub after 1 (String.length after - 1) in
    let slice = String.sub after 0 (min len (String.length after)) in
    frequency
      [
        (3, return (before ^ String.make 1 c ^ after));
        (2, return (before ^ tail));
        (3, return (before ^ String.make 1 c ^ tail));
        (1, return (before ^ slice ^ after));
        (1, return before);
        (1, return (before ^ other));
      ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  let* s = oneofa corpus in
  let* k = int_range 1 4 in
  map (fun s -> if String.length s > 512 then String.sub s 0 512 else s) (edits k s)

(* [Ok]/[Error] both count; only an exception fails. *)
let total f x = match f x with Ok _ | Error _ -> true

let entry_points_total s =
  (match Json.of_string s with
  | Error _ -> true
  | Ok j ->
    total Protocol.request_of_json j
    && total (fun j -> Result.map Sweep.Grid.cells (Sweep.Grid.of_json j)) j)
  && total (fun s -> Result.map Sweep.Grid.cells (Sweep.Grid.of_inline s)) s
  && total Graph.Spec.parse s
  && total Simkit.Cellid.of_string s
  && total Simkit.Cellid.parts_of_address s

let totality_prop =
  QCheck.Test.make ~name:"mutated inputs parse to Ok or Error" ~count:100_000
    (QCheck.make ~print:(Printf.sprintf "%S") mutate_gen)
    entry_points_total

let test_totality_corpus () =
  List.iter
    (fun s -> check Alcotest.bool (Printf.sprintf "%S" s) true (entry_points_total s))
    totality_corpus

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trips" `Quick test_request_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_rejects_malformed;
          Alcotest.test_case "error kinds round-trip" `Quick
            test_error_kinds_roundtrip;
          Alcotest.test_case "response shapes" `Quick test_response_shapes;
        ] );
      ( "totality",
        [
          Alcotest.test_case "corpus parses to Ok or Error" `Quick test_totality_corpus;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |]) totality_prop;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit matches the batch sweep byte-for-byte"
            `Quick test_submit_matches_batch_sweep;
          Alcotest.test_case "resubmission is 100% cache hits" `Quick
            test_resubmission_is_all_cache_hits;
          Alcotest.test_case "typed quota and error kinds" `Quick
            test_quota_and_error_kinds;
          Alcotest.test_case "in-flight quota is released" `Quick
            test_inflight_quota;
          Alcotest.test_case "interrupted campaign resumes via the daemon"
            `Quick test_interrupted_then_resubmitted;
          Alcotest.test_case "reused directory without resume is refused"
            `Quick test_resume_without_flag_is_refused;
          Alcotest.test_case "cancel and status" `Quick test_cancel_and_status;
          Alcotest.test_case "malformed lines get bad-request" `Quick
            test_malformed_lines_get_bad_request;
          Alcotest.test_case "finished job status is byte-stable" `Quick
            test_finished_status_bytes;
          Alcotest.test_case "one-domain jobs interleave" `Quick
            test_one_domain_jobs_interleave;
        ] );
    ]
