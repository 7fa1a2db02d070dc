(* Tests for the simkit harness: scales, seed discipline, trial runners,
   CSV emission, report cells. *)

module Scale = Simkit.Scale
module Seeds = Simkit.Seeds
module Trial = Simkit.Trial
module Pool = Simkit.Pool
module Csvout = Simkit.Csvout
module Report = Simkit.Report
module Json = Simkit.Json
module Artifact = Simkit.Artifact
module Sink = Simkit.Sink

module Benchfile = Simkit.Benchfile

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Benchfile (cobra.bench/1) ---------- *)

let bench_rows =
  [
    { Benchfile.name = "E1/cover-3reg-n1024"; ns = 1234.5 };
    { Benchfile.name = "E1/other"; ns = 10.0 };
    { Benchfile.name = "scale/gen-rr4-n10000"; ns = 2.5e9 };
    { Benchfile.name = "flat-name"; ns = 7.0 };
  ]

let test_benchfile_roundtrip () =
  let t = { Benchfile.rows = bench_rows } in
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Benchfile.write path t;
      match Benchfile.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok t' ->
        check Alcotest.int "row count" (List.length t.rows) (List.length t'.rows);
        List.iter2
          (fun a b ->
            check Alcotest.string "name" a.Benchfile.name b.Benchfile.name;
            check (Alcotest.float 1e-9) "ns" a.Benchfile.ns b.Benchfile.ns)
          t.rows t'.rows)

let test_benchfile_legacy_and_errors () =
  let decode s =
    match Json.of_string s with
    | Ok j -> Benchfile.of_json j
    | Error e -> Error e
  in
  (match decode {|{"a/x": 10.0, "b/y": 20}|} with
  | Ok { rows = [ a; b ] } ->
    check Alcotest.string "legacy row 1" "a/x" a.Benchfile.name;
    check (Alcotest.float 0.0) "legacy int widens" 20.0 b.Benchfile.ns
  | _ -> Alcotest.fail "legacy flat file must decode");
  check Alcotest.bool "unknown schema rejected" true
    (Result.is_error (decode {|{"schema": "cobra.bench/9", "rows": []}|}));
  check Alcotest.bool "bad row rejected" true
    (Result.is_error (decode {|{"schema": "cobra.bench/1", "rows": [{"name": 3}]}|}));
  check Alcotest.bool "non-object rejected" true (Result.is_error (decode {|[1]|}));
  check Alcotest.string "section of slashed name" "E1"
    (Benchfile.section_of "E1/cover");
  check Alcotest.string "section of flat name" "flat" (Benchfile.section_of "flat")

let bench_of l = { Benchfile.rows = List.map (fun (name, ns) -> { Benchfile.name; ns }) l }

let test_benchfile_compare_verdicts () =
  let old_ = bench_of [ ("E1/a", 100.0); ("E1/b", 100.0); ("scale/x", 50.0) ] in
  (* 30% median regression in E1 must gate; scale improved. *)
  let regressed = bench_of [ ("E1/a", 130.0); ("E1/b", 130.0); ("scale/x", 40.0) ] in
  let r = Benchfile.compare ~old_ ~new_:regressed () in
  check Alcotest.int "regression exit code" 1 (Benchfile.exit_code r);
  (match r.Benchfile.sections with
  | [ e1; sc ] ->
    check Alcotest.bool "E1 regressed" true e1.Benchfile.regressed;
    check (Alcotest.float 1e-9) "E1 median" 1.3 e1.Benchfile.median_ratio;
    check Alcotest.bool "scale improved" false sc.Benchfile.regressed
  | _ -> Alcotest.fail "expected two sections");
  (* Within threshold: +20% is not a regression at the default +25%. *)
  let ok = bench_of [ ("E1/a", 120.0); ("E1/b", 120.0); ("scale/x", 50.0) ] in
  check Alcotest.int "ok exit code" 0
    (Benchfile.exit_code (Benchfile.compare ~old_ ~new_:ok ()));
  (* ...but gates under a tighter threshold. *)
  check Alcotest.int "tight threshold" 1
    (Benchfile.exit_code (Benchfile.compare ~threshold:1.1 ~old_ ~new_:ok ()));
  (* A section of OLD with no shared rows in NEW is exit 2. *)
  let missing = bench_of [ ("E1/a", 100.0); ("E1/b", 100.0) ] in
  let r = Benchfile.compare ~old_ ~new_:missing () in
  check Alcotest.int "missing exit code" 2 (Benchfile.exit_code r);
  check Alcotest.(list string) "missing sections" [ "scale" ]
    r.Benchfile.missing_sections;
  (* The median is robust: one outlier row does not gate a section. *)
  let old3 = bench_of [ ("E1/a", 100.0); ("E1/b", 100.0); ("E1/c", 100.0) ] in
  let outlier = bench_of [ ("E1/a", 500.0); ("E1/b", 100.0); ("E1/c", 100.0) ] in
  check Alcotest.int "median robust to one outlier" 0
    (Benchfile.exit_code (Benchfile.compare ~old_:old3 ~new_:outlier ()))

(* ---------- Scale ---------- *)

let test_scale_parse () =
  check Alcotest.bool "quick" true (Scale.of_string "quick" = Ok Scale.Quick);
  check Alcotest.bool "QUICK case" true (Scale.of_string " QUICK " = Ok Scale.Quick);
  check Alcotest.bool "standard" true (Scale.of_string "standard" = Ok Scale.Standard);
  check Alcotest.bool "full" true (Scale.of_string "full" = Ok Scale.Full);
  check Alcotest.bool "garbage" true (Result.is_error (Scale.of_string "medium"))

let test_scale_pick_roundtrip () =
  List.iter
    (fun s ->
      check Alcotest.bool "roundtrip" true (Scale.of_string (Scale.to_string s) = Ok s))
    [ Scale.Quick; Scale.Standard; Scale.Full ];
  check Alcotest.int "pick quick" 1 (Scale.pick Scale.Quick ~quick:1 ~standard:2 ~full:3);
  check Alcotest.int "pick full" 3 (Scale.pick Scale.Full ~quick:1 ~standard:2 ~full:3)

(* ---------- Seeds ---------- *)

let test_seed_streams_deterministic () =
  let a = Seeds.trial_rng ~master:5 ~salt:3 in
  let b = Seeds.trial_rng ~master:5 ~salt:3 in
  for _ = 1 to 20 do
    check Alcotest.int "same stream" (Prng.Rng.bits a) (Prng.Rng.bits b)
  done

let test_seed_streams_independent () =
  let a = Seeds.trial_rng ~master:5 ~salt:3 in
  let b = Seeds.trial_rng ~master:5 ~salt:4 in
  let c = Seeds.trial_rng ~master:6 ~salt:3 in
  let collisions = ref 0 in
  for _ = 1 to 100 do
    let va = Prng.Rng.bits a and vb = Prng.Rng.bits b and vc = Prng.Rng.bits c in
    if va = vb || va = vc || vb = vc then incr collisions
  done;
  check Alcotest.int "no collisions" 0 !collisions

let test_tagged_rng () =
  let a = Seeds.tagged_rng ~master:1 ~tag:"x" in
  let a' = Seeds.tagged_rng ~master:1 ~tag:"x" in
  let b = Seeds.tagged_rng ~master:1 ~tag:"y" in
  check Alcotest.int "same tag same stream" (Prng.Rng.bits a) (Prng.Rng.bits a');
  check Alcotest.bool "different tags differ" true (Prng.Rng.bits a <> Prng.Rng.bits b)

(* ---------- Trial ---------- *)

let test_collect_deterministic () =
  let f rng = Prng.Rng.int rng 1000 in
  let a = Trial.collect ~trials:10 ~master:7 ~salt0:0 f in
  let b = Trial.collect ~trials:10 ~master:7 ~salt0:0 f in
  check Alcotest.(array int) "reproducible" a b;
  let c = Trial.collect ~trials:10 ~master:8 ~salt0:0 f in
  check Alcotest.bool "different master differs" true (a <> c)

let test_collect_censored () =
  let f rng = if Prng.Rng.int rng 2 = 0 then Some 1.0 else None in
  let r = Trial.collect_censored ~trials:100 ~master:7 ~salt0:0 f in
  check Alcotest.int "values + censored = trials" 100
    (Array.length r.Trial.values + r.Trial.censored);
  check Alcotest.bool "some of each" true
    (Array.length r.Trial.values > 10 && r.Trial.censored > 10)

let test_summarize_int () =
  let s, censored =
    Trial.summarize_int ~trials:50 ~master:1 ~salt0:0 (fun rng ->
        Some (Prng.Rng.int rng 10))
  in
  check Alcotest.int "no censoring" 0 censored;
  check Alcotest.int "count" 50 (Stats.Summary.count s);
  check Alcotest.bool "mean in range" true
    (Stats.Summary.mean s >= 0.0 && Stats.Summary.mean s <= 9.0)

let test_summarize_all_censored () =
  Alcotest.check_raises "all censored" (Failure "Trial: every trial was censored")
    (fun () ->
      ignore (Trial.summarize_int ~trials:5 ~master:1 ~salt0:0 (fun _ -> None)))

(* ---------- Pool / parallel trials ---------- *)

(* The contract that makes parallel experiments trustworthy: collect_par
   must return the *identical* array for every (trials, domains)
   combination, because trial i draws from salt0 + i and lands in slot i
   regardless of which domain runs it. *)
let test_pool_collect_equivalence () =
  let f rng = Prng.Rng.int rng 1_000_000 in
  List.iter
    (fun trials ->
      let seq = Trial.collect ~trials ~master:11 ~salt0:77 f in
      List.iter
        (fun domains ->
          let par = Trial.collect_par ~domains ~trials ~master:11 ~salt0:77 f in
          check
            Alcotest.(array int)
            (Printf.sprintf "trials=%d domains=%d" trials domains)
            seq par)
        [ 1; 2; 4 ])
    [ 1; 7; 64 ]

let test_pool_censored_equivalence () =
  let f rng = if Prng.Rng.int rng 3 = 0 then None else Some (Prng.Rng.int rng 100) in
  let seq = Trial.collect_censored ~trials:64 ~master:3 ~salt0:9 f in
  List.iter
    (fun domains ->
      let par = Trial.collect_censored_par ~domains ~trials:64 ~master:3 ~salt0:9 f in
      check Alcotest.(array int) "values preserved" seq.Trial.values par.Trial.values;
      check Alcotest.int "censored count preserved" seq.Trial.censored
        par.Trial.censored)
    [ 1; 2; 4 ]

let test_pool_summarize_equivalence () =
  let f rng = Some (Prng.Rng.int rng 50) in
  let s_seq, c_seq = Trial.summarize_int ~trials:40 ~master:2 ~salt0:5 f in
  let s_par, c_par = Trial.summarize_int_par ~domains:4 ~trials:40 ~master:2 ~salt0:5 f in
  check Alcotest.int "censored" c_seq c_par;
  check Alcotest.int "count" (Stats.Summary.count s_seq) (Stats.Summary.count s_par);
  check (Alcotest.float 0.0) "mean bit-identical" (Stats.Summary.mean s_seq)
    (Stats.Summary.mean s_par)

let test_pool_exception_propagates () =
  (* Every trial raises: the batch must terminate (not deadlock) and
     re-raise in the caller. *)
  Alcotest.check_raises "all raise" (Failure "boom") (fun () ->
      ignore
        (Trial.collect_par ~domains:4 ~trials:64 ~master:1 ~salt0:0 (fun _ ->
             failwith "boom")));
  (* A single failing trial out of many: still propagated. *)
  let calls = Atomic.make 0 in
  Alcotest.check_raises "one raises" (Failure "trial 13") (fun () ->
      ignore
        (Trial.collect_par ~domains:4 ~trials:64 ~master:1 ~salt0:0 (fun rng ->
             if Atomic.fetch_and_add calls 1 = 13 then failwith "trial 13";
             Prng.Rng.int rng 10)))

let test_pool_reuse_and_edge_cases () =
  Pool.with_pool ~domains:3 (fun pool ->
      check Alcotest.int "size" 3 (Pool.size pool);
      (* Several batches through the same pool, including empty ones. *)
      Pool.run pool ~n:0 (fun _ -> Alcotest.fail "n=0 must run nothing");
      let a = Array.make 129 (-1) in
      Pool.run pool ~n:129 (fun i -> a.(i) <- i * i);
      Array.iteri (fun i v -> check Alcotest.int "first batch slot" (i * i) v) a;
      let b = Array.make 5 (-1) in
      Pool.run pool ~n:5 (fun i -> b.(i) <- i + 1);
      check Alcotest.(array int) "second batch" [| 1; 2; 3; 4; 5 |] b);
  Alcotest.check_raises "domains >= 1"
    (Invalid_argument "Pool.create: domains >= 1 required") (fun () ->
      ignore (Pool.create ~domains:0))

let test_cobra_domains_parsing () =
  check Alcotest.bool "4 ok" true (Pool.domains_of_string "4" = Ok 4);
  check Alcotest.bool "trimmed" true (Pool.domains_of_string " 2 " = Ok 2);
  check Alcotest.bool "1 ok" true (Pool.domains_of_string "1" = Ok 1);
  let rejected s =
    match Pool.domains_of_string s with
    | Ok _ -> Alcotest.failf "%S should be rejected" s
    | Error msg -> check Alcotest.bool "message nonempty" true (String.length msg > 0)
  in
  List.iter rejected [ "0"; "-3"; "abc"; ""; "2.5" ]

(* ---------- Csvout ---------- *)

let test_csv_escape () =
  check Alcotest.string "plain" "abc" (Csvout.escape "abc");
  check Alcotest.string "comma" "\"a,b\"" (Csvout.escape "a,b");
  check Alcotest.string "quote" "\"a\"\"b\"" (Csvout.escape "a\"b");
  check Alcotest.string "newline" "\"a\nb\"" (Csvout.escape "a\nb")

let test_csv_document () =
  let doc = Csvout.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "a,b"; "c" ] ] in
  check Alcotest.string "document" "x,y\n1,2\n\"a,b\",c\n" doc;
  Alcotest.check_raises "arity" (Invalid_argument "Csvout: row arity mismatch")
    (fun () -> ignore (Csvout.to_string ~header:[ "x" ] [ [ "1"; "2" ] ]))

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "cobra_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csvout.write_file path ~header:[ "a" ] [ [ "1" ]; [ "2" ] ];
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.string "file content" "a\n1\n2\n" content)

let csv_parse_roundtrip_prop =
  QCheck.Test.make ~name:"escaped fields never break row structure" ~count:200
    QCheck.(small_list (small_list printable_string))
    (fun rows ->
      QCheck.assume (rows <> [] && List.for_all (fun r -> List.length r = 2) rows);
      let doc = Csvout.to_string ~header:[ "a"; "b" ] rows in
      (* Count unquoted newlines = rows + header. *)
      let lines = ref 0 and in_quotes = ref false in
      String.iter
        (fun c ->
          if c = '"' then in_quotes := not !in_quotes
          else if c = '\n' && not !in_quotes then incr lines)
        doc;
      !lines = List.length rows + 1)

(* ---------- Seeds.salt_of_tag ---------- *)

(* The regression behind `cover --scan-starts`: the old linear scheme
   [start * 131 + i] collides as soon as trials exceed 131. The hashed
   per-tag salt bases must keep every (start, trial) stream distinct for
   realistic scan sizes. *)
let test_salt_of_tag_no_scan_collisions () =
  let trials = 1000 in
  let starts = [ 0; 1; 2; 17; 131; 4096; 999_999 ] in
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun start ->
      let salt0 = Seeds.salt_of_tag (Printf.sprintf "cli:scan:start=%d" start) in
      for i = 0 to trials - 1 do
        let salt = salt0 + i in
        (match Hashtbl.find_opt seen salt with
        | Some other ->
          Alcotest.failf "salt collision: start %d trial %d vs %s" start i other
        | None -> ());
        Hashtbl.add seen salt (Printf.sprintf "start %d trial %d" start i)
      done)
    starts;
  (* And the old scheme really was broken — document the bug it fixes. *)
  let old_scheme start i = (start * 131) + i in
  check Alcotest.int "old scheme collides at trials > 131" (old_scheme 0 131)
    (old_scheme 1 0)

let test_salt_of_tag_deterministic () =
  check Alcotest.int "stable across calls" (Seeds.salt_of_tag "x")
    (Seeds.salt_of_tag "x");
  check Alcotest.bool "distinct tags differ" true
    (Seeds.salt_of_tag "x" <> Seeds.salt_of_tag "y")

(* ---------- Json ---------- *)

let sample_doc =
  Json.Obj
    [
      ("schema", Json.String "test/1");
      ("n", Json.Int 42);
      ("x", Json.Float 3.25);
      ("ok", Json.Bool true);
      ("nothing", Json.Null);
      ( "rows",
        Json.List
          [
            Json.List [ Json.Int 1; Json.Float 0.5 ];
            Json.String "a \"quoted\"\nline";
          ] );
    ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty sample_doc) with
      | Ok v ->
        check Alcotest.bool
          (Printf.sprintf "pretty=%b structural equality" pretty)
          true (v = sample_doc)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ false; true ]

let test_json_float_repr () =
  check Alcotest.string "integral" "1.0" (Json.float_repr 1.0);
  check Alcotest.string "nan is null" "null" (Json.float_repr Float.nan);
  List.iter
    (fun x ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "%h round-trips" x)
        x
        (float_of_string (Json.float_repr x)))
    [ 0.1; 1.0 /. 3.0; 22.099999999999998; 1e-300; 6.02e23; infinity; neg_infinity ]

let test_json_parse_forms () =
  check Alcotest.bool "int token" true (Json.of_string "3" = Ok (Json.Int 3));
  check Alcotest.bool "float token" true (Json.of_string "3.5" = Ok (Json.Float 3.5));
  check Alcotest.bool "negative exponent" true
    (Json.of_string "-2e-3" = Ok (Json.Float (-0.002)));
  check Alcotest.bool "escapes" true
    (Json.of_string {|"a\t\"b\"A"|} = Ok (Json.String "a\t\"b\"A"));
  check Alcotest.bool "trailing garbage rejected" true
    (Result.is_error (Json.of_string "1 2"));
  check Alcotest.bool "unterminated rejected" true
    (Result.is_error (Json.of_string "[1, 2"));
  check Alcotest.bool "bad literal rejected" true
    (Result.is_error (Json.of_string "flase"));
  (* Number-shaped tokens that are not numbers come back as [Error],
     never as an escaping [Failure] from the float conversion. *)
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "%S rejected" s) true
        (Result.is_error (Json.of_string s)))
    [ "-"; "+"; "-e"; "1e"; "--1"; {|{"a":-}|}; {|{"op":-}|}; "[+]" ];
  check Alcotest.bool "integral text past the int range reads as a float" true
    (Json.of_string "123456789012345678901234567890"
    = Ok (Json.Float 123456789012345678901234567890.))

let test_json_accessors () =
  check Alcotest.bool "member" true
    (Json.member "n" sample_doc = Some (Json.Int 42));
  check Alcotest.bool "member missing" true (Json.member "zz" sample_doc = None);
  check Alcotest.bool "to_number widens int" true
    (Json.to_number (Json.Int 7) = Some 7.0);
  check Alcotest.bool "to_bool" true (Json.to_bool_opt (Json.Bool true) = Some true)

let json_string_roundtrip_prop =
  QCheck.Test.make ~name:"json string escape round-trips" ~count:300
    QCheck.printable_string (fun s ->
      Json.of_string (Json.escape_string s) = Ok (Json.String s))

(* ---------- Artifact ---------- *)

let summary_of_array a = Artifact.of_summary (Stats.Summary.of_array a)

let test_artifact_cells () =
  check Alcotest.string "int" "7" (Artifact.cell_to_string (Artifact.int 7));
  check Alcotest.string "integral float" "42"
    (Artifact.cell_to_string (Artifact.float 42.0));
  check Alcotest.string "display wins" "3.142"
    (Artifact.cell_to_string (Artifact.floatf "%.3f" 3.14159));
  check Alcotest.string "raw keeps precision" "3.14159"
    (Artifact.cell_to_raw_string (Artifact.floatf "%.3f" 3.14159));
  let s = summary_of_array [| 10.0; 11.0; 9.0; 10.0 |] in
  check Alcotest.int "summary count" 4 s.Artifact.count;
  check (Alcotest.float 1e-9) "summary mean" 10.0 s.Artifact.mean;
  check Alcotest.bool "ci brackets mean" true
    (s.Artifact.ci_lo < 10.0 && 10.0 < s.Artifact.ci_hi)

let test_artifact_tab_arity () =
  let t = Artifact.Tab.create [ "a"; "b" ] in
  Artifact.Tab.add_row t [ Artifact.int 1; Artifact.int 2 ];
  check Alcotest.int "rows" 1 (Artifact.Tab.rows t);
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Artifact.Tab.add_row: cell count mismatch") (fun () ->
      Artifact.Tab.add_row t [ Artifact.int 1 ])

let dummy_meta =
  {
    Artifact.id = "T1";
    slug = "unit";
    title = "unit artifact";
    claim = "none";
    scale = "quick";
    master = 1;
    domains = 1;
  }

let artifact_with events = { Artifact.meta = dummy_meta; events; elapsed_s = 0.5 }

let test_artifact_passed () =
  check Alcotest.bool "no verdicts: vacuously passed" true
    (Artifact.passed (artifact_with [ Artifact.note "hi" ]));
  check Alcotest.bool "pass verdict" true
    (Artifact.passed (artifact_with [ Artifact.verdict ~pass:true "ok" ]));
  check Alcotest.bool "one failure fails" false
    (Artifact.passed
       (artifact_with
          [ Artifact.verdict ~pass:true "ok"; Artifact.verdict ~pass:false "bad" ]));
  check Alcotest.string "basename" "T1_unit" (Artifact.basename dummy_meta)

let test_artifact_json_doc () =
  let table = Artifact.Tab.create [ "n"; "cover" ] in
  Artifact.Tab.add_row table
    [ Artifact.int 256; Artifact.summary (Stats.Summary.of_array [| 1.0; 2.0 |]) ];
  let a =
    artifact_with
      [
        Artifact.context [ ("r", "3") ];
        Artifact.Tab.event table;
        Artifact.metric ~name:"spread" 1.25;
        Artifact.verdict ~pass:true "fine";
      ]
  in
  match Json.of_string (Json.to_string ~pretty:true (Artifact.to_json a)) with
  | Error e -> Alcotest.failf "artifact json does not parse: %s" e
  | Ok doc ->
    check Alcotest.bool "schema" true
      (Json.member "schema" doc = Some (Json.String Artifact.schema_version));
    check Alcotest.bool "pass" true
      (Json.member "pass" doc = Some (Json.Bool true));
    let events = Option.get (Json.to_list (Option.get (Json.member "events" doc))) in
    check Alcotest.int "all events serialised" 4 (List.length events);
    let types =
      List.map
        (fun e -> Option.get (Json.to_string_opt (Option.get (Json.member "type" e))))
        events
    in
    check
      Alcotest.(list string)
      "event types" [ "context"; "table"; "metric"; "verdict" ] types

(* ---------- Sink ---------- *)

let with_temp_dir ?(prefix = "cobra_sink") f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d" prefix (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_sink_json_writes_parseable_doc () =
  with_temp_dir (fun dir ->
      let a = artifact_with [ Artifact.verdict ~pass:false "deliberate" ] in
      let sink = Sink.json ~dir in
      sink.Sink.start a.Artifact.meta;
      List.iter sink.Sink.event a.Artifact.events;
      sink.Sink.finish a;
      let path = Filename.concat dir "T1_unit.json" in
      check Alcotest.bool "file exists" true (Sys.file_exists path);
      match Json.of_file path with
      | Error e -> Alcotest.failf "emitted file does not parse: %s" e
      | Ok doc ->
        check Alcotest.bool "failing verdict recorded" true
          (Json.member "pass" doc = Some (Json.Bool false)))

let test_sink_csv_writes_tables () =
  with_temp_dir (fun dir ->
      let table = Artifact.Tab.create [ "n"; "x" ] in
      Artifact.Tab.add_row table [ Artifact.int 1; Artifact.floatf "%.1f" 2.75 ];
      let a = artifact_with [ Artifact.Tab.event table ] in
      (Sink.csv ~dir).Sink.finish a;
      let path = Filename.concat dir "T1_unit.t1.csv" in
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.string "raw values, not display strings" "n,x\n1,2.75\n" content)

let test_sink_manifest () =
  with_temp_dir (fun dir ->
      let good = artifact_with [ Artifact.verdict ~pass:true "ok" ] in
      let bad = artifact_with [ Artifact.verdict ~pass:false "nope" ] in
      let path = Sink.write_manifest ~dir [ good; bad ] in
      match Json.of_file path with
      | Error e -> Alcotest.failf "manifest does not parse: %s" e
      | Ok doc ->
        check Alcotest.bool "suite pass is false" true
          (Json.member "pass" doc = Some (Json.Bool false));
        let exps =
          Option.get (Json.to_list (Option.get (Json.member "experiments" doc)))
        in
        check Alcotest.int "two entries" 2 (List.length exps))

(* ---------- Report ---------- *)

let test_report_cells () =
  check Alcotest.string "integral float" "42" (Report.float_cell 42.0);
  check Alcotest.string "fractional" "3.142" (Report.float_cell 3.14159);
  let s = Stats.Summary.of_array [| 10.0; 11.0; 9.0; 10.0 |] in
  let cell = Report.mean_ci_cell s in
  check Alcotest.bool "has plus-minus" true
    (String.length cell > 2 && String.contains cell '\xc2' || String.contains cell ' ')

(* ---------- campaign ---------- *)

(* Synthetic cells: payload is a pure function of (master, salt), with a
   side counter so tests can observe how many cells actually executed. *)
let synth_cells ?(executions = ref 0) n =
  List.init n (fun index ->
      {
        Simkit.Campaign.index;
        address = Printf.sprintf "cell=%d" index;
        meta = [ ("kind", Simkit.Json.String "synthetic") ];
        run =
          (fun ~master ~salt ->
            incr executions;
            Simkit.Json.Obj
              [
                ("index", Simkit.Json.Int index);
                ("value", Simkit.Json.Int ((master * 1_000_003) + salt));
              ]);
      })

let campaign_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "campaign_test_%d_%d" (Unix.getpid ()) !counter)

let campaign_config ?(resume = false) ?max_cells ?cache ?(progress = ignore) dir =
  { Simkit.Campaign.dir; master = 11; resume; max_cells; domains = Some 1; cache;
    progress }

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spew path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let replace_once haystack needle replacement =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i else go (i + 1)
  in
  match go 0 with
  | None -> haystack
  | Some i ->
    String.sub haystack 0 i ^ replacement
    ^ String.sub haystack (i + nn) (nh - i - nn)

let test_campaign_complete_run () =
  let dir = campaign_dir () in
  let executions = ref 0 in
  match
    Simkit.Campaign.run (campaign_config dir) ~name:"synth"
      ~cells:(synth_cells ~executions 4)
  with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check Alcotest.int "ran" 4 r.Simkit.Campaign.ran;
    check Alcotest.int "executed" 4 !executions;
    check Alcotest.int "remaining" 0 r.Simkit.Campaign.remaining;
    (match r.Simkit.Campaign.manifest with
    | None -> Alcotest.fail "expected a manifest"
    | Some path -> (
      match Simkit.Json.of_file path with
      | Error msg -> Alcotest.fail msg
      | Ok doc ->
        check
          Alcotest.(option string)
          "schema"
          (Some Simkit.Campaign.manifest_schema)
          (Option.bind (Simkit.Json.member "schema" doc) Simkit.Json.to_string_opt);
        let cells = Option.get (Simkit.Json.member "cells" doc) in
        check Alcotest.int "manifest cells" 4
          (List.length (Option.get (Simkit.Json.to_list cells)))));
    check Alcotest.bool "grid.json written" true
      (Sys.file_exists (Filename.concat dir "grid.json"))

let test_campaign_refuses_without_resume () =
  let dir = campaign_dir () in
  let cells = synth_cells 3 in
  (match Simkit.Campaign.run (campaign_config dir) ~name:"synth" ~cells with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  match Simkit.Campaign.run (campaign_config dir) ~name:"synth" ~cells with
  | Ok _ -> Alcotest.fail "expected refusal to reuse an initialised dir"
  | Error msg -> check Alcotest.bool "error mentions --resume" true (contains msg "--resume")

let test_campaign_resume_reuses_all () =
  let dir = campaign_dir () in
  let executions = ref 0 in
  let cells = synth_cells ~executions 5 in
  (match Simkit.Campaign.run (campaign_config dir) ~name:"synth" ~cells with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let before = slurp (Filename.concat dir "manifest.json") in
  match Simkit.Campaign.run (campaign_config ~resume:true dir) ~name:"synth" ~cells with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check Alcotest.int "nothing re-ran" 0 r.Simkit.Campaign.ran;
    check Alcotest.int "all reused" 5 r.Simkit.Campaign.reused;
    check Alcotest.int "executions unchanged" 5 !executions;
    check Alcotest.string "manifest unchanged"
      before
      (slurp (Filename.concat dir "manifest.json"))

let test_campaign_max_cells_then_resume () =
  let dir_full = campaign_dir () and dir_part = campaign_dir () in
  let cells = synth_cells 6 in
  (match Simkit.Campaign.run (campaign_config dir_full) ~name:"synth" ~cells with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  (match
     Simkit.Campaign.run (campaign_config ~max_cells:2 dir_part) ~name:"synth" ~cells
   with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check Alcotest.int "truncated" 2 r.Simkit.Campaign.ran;
    check Alcotest.int "remaining" 4 r.Simkit.Campaign.remaining;
    check Alcotest.bool "no manifest yet" true (r.Simkit.Campaign.manifest = None));
  match
    Simkit.Campaign.run (campaign_config ~resume:true dir_part) ~name:"synth" ~cells
  with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check Alcotest.int "finished the rest" 4 r.Simkit.Campaign.ran;
    check Alcotest.string "manifest byte-identical to uninterrupted"
      (slurp (Filename.concat dir_full "manifest.json"))
      (slurp (Filename.concat dir_part "manifest.json"));
    for i = 0 to 5 do
      let f = Printf.sprintf "cells/cell_%05d.json" i in
      check Alcotest.string ("cell byte-identical: " ^ f)
        (slurp (Filename.concat dir_full f))
        (slurp (Filename.concat dir_part f))
    done

let test_campaign_corrupt_checkpoint_rerun () =
  let dir = campaign_dir () in
  let cells = synth_cells 4 in
  (match Simkit.Campaign.run (campaign_config ~max_cells:3 dir) ~name:"synth" ~cells with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let victim = Filename.concat dir "cells/cell_00001.json" in
  let good = slurp victim in
  (* Flip the payload without updating the digest: must be detected. *)
  spew victim (replace_once good "\"value\"" "\"velue\"");
  let lines = ref [] in
  match
    Simkit.Campaign.run
      (campaign_config ~resume:true ~progress:(fun l -> lines := l :: !lines) dir)
      ~name:"synth" ~cells
  with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check Alcotest.int "corrupted detected" 1 r.Simkit.Campaign.corrupted;
    check Alcotest.int "reused the valid ones" 2 r.Simkit.Campaign.reused;
    check Alcotest.int "re-ran corrupt + missing" 2 r.Simkit.Campaign.ran;
    check Alcotest.bool "corruption reported" true
      (List.exists
         (function Simkit.Campaign.Corrupt_rerun _ -> true | _ -> false)
         !lines);
    check Alcotest.string "corrupt record re-written with original bytes" good
      (slurp victim)

(* The payload digest does not cover the meta block, so a tampered (or
   stale) meta must be caught by the field-for-field identity check. *)
let test_campaign_meta_mismatch_detected () =
  let dir = campaign_dir () in
  let cells = synth_cells 3 in
  (match Simkit.Campaign.run (campaign_config dir) ~name:"synth" ~cells with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let victim = Filename.concat dir "cells/cell_00001.json" in
  let good = slurp victim in
  spew victim (replace_once good "\"synthetic\"" "\"synthetiq\"");
  match Simkit.Campaign.run (campaign_config ~resume:true dir) ~name:"synth" ~cells with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check Alcotest.int "meta mismatch detected" 1 r.Simkit.Campaign.corrupted;
    check Alcotest.int "tampered cell re-ran" 1 r.Simkit.Campaign.ran;
    check Alcotest.string "record re-written with original bytes" good (slurp victim)

let test_campaign_rejects_bad_cells () =
  let dir = campaign_dir () in
  let bad_index =
    List.map
      (fun c -> { c with Simkit.Campaign.index = c.Simkit.Campaign.index + 1 })
      (synth_cells 2)
  in
  (match Simkit.Campaign.run (campaign_config dir) ~name:"synth" ~cells:bad_index with
  | Ok _ -> Alcotest.fail "expected non-positional indices to be rejected"
  | Error _ -> ());
  let dup =
    List.map (fun c -> { c with Simkit.Campaign.address = "same" }) (synth_cells 2)
  in
  match Simkit.Campaign.run (campaign_config dir) ~name:"synth" ~cells:dup with
  | Ok _ -> Alcotest.fail "expected duplicate addresses to be rejected"
  | Error _ -> ()

let test_campaign_salt_is_address_pure () =
  check Alcotest.int "same address, same salt"
    (Simkit.Campaign.salt_of_address "g=cycle:8;k=cobra;b=k=2")
    (Simkit.Campaign.salt_of_address "g=cycle:8;k=cobra;b=k=2");
  check Alcotest.bool "different address, different salt" true
    (Simkit.Campaign.salt_of_address "cell=0"
     <> Simkit.Campaign.salt_of_address "cell=1")

(* ---------- cellid ---------- *)

let meta_gen =
  QCheck.(
    small_list
      (pair
         (string_gen_of_size Gen.(1 -- 8) Gen.printable)
         (map (fun i -> Simkit.Json.Int i) small_int)))

let cellid_string_roundtrip_prop =
  QCheck.Test.make ~name:"cellid to_string/of_string round-trips" ~count:300
    QCheck.(pair (string_gen_of_size Gen.(1 -- 30) Gen.printable) meta_gen)
    (fun (address, meta) ->
      QCheck.assume (address <> "");
      let id = Simkit.Cellid.make ~address ~meta in
      match Simkit.Cellid.of_string (Simkit.Cellid.to_string id) with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok id' ->
        Simkit.Cellid.equal id id'
        && Simkit.Cellid.address id' = address
        && Simkit.Cellid.salt id' = Simkit.Campaign.salt_of_address address)

let address_part_gen =
  (* Keys exclude '=', ';', '\n'; values exclude ';', '\n'. *)
  QCheck.(
    pair
      (string_gen_of_size Gen.(1 -- 6)
         (Gen.oneofl [ 'a'; 'b'; 'g'; 'k'; '_'; '.'; '-' ]))
      (string_gen_of_size Gen.(0 -- 10)
         (Gen.oneofl [ 'x'; 'y'; '0'; '9'; ':'; ','; '='; ' ' ])))

let address_parts_roundtrip_prop =
  QCheck.Test.make ~name:"address parts round-trip" ~count:300
    QCheck.(list_of_size Gen.(1 -- 5) address_part_gen)
    (fun parts ->
      let a = Simkit.Cellid.address_of_parts parts in
      match Simkit.Cellid.parts_of_address a with
      | Error e -> QCheck.Test.fail_reportf "parse failed on %S: %s" a e
      | Ok parts' -> parts' = parts)

let test_cellid_validation () =
  (match Simkit.Cellid.of_parts ~address:"a" ~digest:"nothex" with
  | Ok _ -> Alcotest.fail "expected a bad digest to be rejected"
  | Error _ -> ());
  (match Simkit.Cellid.of_string "tooshort:a" with
  | Ok _ -> Alcotest.fail "expected a malformed encoding to be rejected"
  | Error _ -> ());
  (try
     ignore (Simkit.Cellid.address_of_parts [ ("k=ey", "v") ]);
     Alcotest.fail "expected '=' in key to be rejected"
   with Invalid_argument _ -> ());
  (try
     ignore (Simkit.Cellid.address_of_parts [ ("k", "a;b") ]);
     Alcotest.fail "expected ';' in value to be rejected"
   with Invalid_argument _ -> ());
  (* The sweep-grid address shape is preserved byte-for-byte. *)
  check Alcotest.string "sweep address shape" "g=cycle:12;k=cobra;b=k=2"
    (Simkit.Cellid.address_of_parts
       [ ("g", "cycle:12"); ("k", "cobra"); ("b", "k=2") ])

let test_cellid_meta_digest_sensitivity () =
  let meta = [ ("trials", Json.Int 3) ] in
  let id1 = Simkit.Cellid.make ~address:"a" ~meta in
  let id2 = Simkit.Cellid.make ~address:"a" ~meta:[ ("trials", Json.Int 4) ] in
  let id3 = Simkit.Cellid.make ~address:"a" ~meta in
  check Alcotest.bool "same meta, same digest" true (Simkit.Cellid.equal id1 id3);
  check Alcotest.bool "different meta, different digest" false
    (Simkit.Cellid.equal id1 id2);
  check Alcotest.int "salt ignores meta" (Simkit.Cellid.salt id1)
    (Simkit.Cellid.salt id2)

(* ---------- cellstore ---------- *)

let test_cellstore_put_find () =
  with_temp_dir ~prefix:"cellstore" (fun dir ->
      let store = Simkit.Cellstore.open_ ~dir in
      let id = Simkit.Cellid.make ~address:"cell=0" ~meta:[ ("t", Json.Int 1) ] in
      let payload = Json.Obj [ ("v", Json.Int 42) ] in
      check Alcotest.bool "empty store misses" true
        (Simkit.Cellstore.find store ~master:7 id = None);
      Simkit.Cellstore.put store ~master:7 id payload;
      check Alcotest.bool "hit returns the payload" true
        (Simkit.Cellstore.find store ~master:7 id = Some payload);
      check Alcotest.bool "different master misses" true
        (Simkit.Cellstore.find store ~master:8 id = None);
      let other =
        Simkit.Cellid.make ~address:"cell=0" ~meta:[ ("t", Json.Int 2) ]
      in
      check Alcotest.bool "different meta digest misses" true
        (Simkit.Cellstore.find store ~master:7 other = None);
      let st = Simkit.Cellstore.stats store in
      check Alcotest.int "hits" 1 st.Simkit.Cellstore.hits;
      check Alcotest.int "misses" 3 st.Simkit.Cellstore.misses;
      check Alcotest.int "puts" 1 st.Simkit.Cellstore.puts;
      check Alcotest.int "entries" 1 (Simkit.Cellstore.entries store))

let test_cellstore_corrupt_record_is_a_miss () =
  with_temp_dir ~prefix:"cellstore" (fun dir ->
      let store = Simkit.Cellstore.open_ ~dir in
      let id = Simkit.Cellid.make ~address:"cell=1" ~meta:[] in
      let payload = Json.Obj [ ("v", Json.Int 1) ] in
      Simkit.Cellstore.put store ~master:3 id payload;
      let path = Simkit.Cellstore.path store ~master:3 id in
      spew path (replace_once (slurp path) "\"v\"" "\"w\"");
      check Alcotest.bool "tampered record degrades to a miss" true
        (Simkit.Cellstore.find store ~master:3 id = None);
      spew path "not json at all";
      check Alcotest.bool "unparseable record degrades to a miss" true
        (Simkit.Cellstore.find store ~master:3 id = None))

(* ---------- campaign x cache ---------- *)

let test_campaign_second_run_is_all_cache_hits () =
  with_temp_dir ~prefix:"cellcache" (fun cache_dir ->
      let store = Simkit.Cellstore.open_ ~dir:cache_dir in
      let executions = ref 0 in
      let cells = synth_cells ~executions 5 in
      let dir1 = campaign_dir () and dir2 = campaign_dir () in
      (match
         Simkit.Campaign.run (campaign_config ~cache:store dir1) ~name:"synth"
           ~cells
       with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
        check Alcotest.int "first run executes everything" 5 r.Simkit.Campaign.ran;
        check Alcotest.int "first run has no cache hits" 0
          r.Simkit.Campaign.cached);
      check Alcotest.int "five executions so far" 5 !executions;
      (match
         Simkit.Campaign.run (campaign_config ~cache:store dir2) ~name:"synth"
           ~cells
       with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
        check Alcotest.int "second run executes nothing" 0 r.Simkit.Campaign.ran;
        check Alcotest.int "second run is 100% cache hits" 5
          r.Simkit.Campaign.cached;
        check Alcotest.bool "second run still completes" true
          (r.Simkit.Campaign.manifest <> None));
      check Alcotest.int "run was never invoked again" 5 !executions;
      (* Byte-identity of the cached path with the computed path. *)
      check Alcotest.string "manifests byte-identical"
        (slurp (Filename.concat dir1 "manifest.json"))
        (slurp (Filename.concat dir2 "manifest.json"));
      for i = 0 to 4 do
        let f = Printf.sprintf "cells/cell_%05d.json" i in
        check Alcotest.string ("cell byte-identical: " ^ f)
          (slurp (Filename.concat dir1 f))
          (slurp (Filename.concat dir2 f))
      done)

let test_campaign_cache_misses_on_different_identity () =
  with_temp_dir ~prefix:"cellcache" (fun cache_dir ->
      let store = Simkit.Cellstore.open_ ~dir:cache_dir in
      let executions = ref 0 in
      let run_with ~meta ~config_of_dir =
        let cells =
          List.map
            (fun c -> { c with Simkit.Campaign.meta })
            (synth_cells ~executions 3)
        in
        match
          Simkit.Campaign.run (config_of_dir (campaign_dir ())) ~name:"synth"
            ~cells
        with
        | Error msg -> Alcotest.fail msg
        | Ok r -> r
      in
      let meta1 = [ ("trials", Json.Int 3) ] in
      let meta2 = [ ("trials", Json.Int 4) ] in
      let _ = run_with ~meta:meta1 ~config_of_dir:(campaign_config ~cache:store) in
      check Alcotest.int "first run executed" 3 !executions;
      (* Same addresses, different meta: every cell must miss. *)
      let r = run_with ~meta:meta2 ~config_of_dir:(campaign_config ~cache:store) in
      check Alcotest.int "different meta re-executes" 3 r.Simkit.Campaign.ran;
      check Alcotest.int "no false hits" 0 r.Simkit.Campaign.cached;
      check Alcotest.int "six executions total" 6 !executions;
      (* Different master seed: also a miss. *)
      let cells = List.map (fun c -> { c with Simkit.Campaign.meta = meta1 })
          (synth_cells ~executions 3) in
      let config =
        { (campaign_config ~cache:store (campaign_dir ())) with
          Simkit.Campaign.master = 12 }
      in
      (match Simkit.Campaign.run config ~name:"synth" ~cells with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
        check Alcotest.int "different master re-executes" 3 r.Simkit.Campaign.ran);
      check Alcotest.int "nine executions total" 9 !executions)

(* ---------- campaign events ---------- *)

let event_samples =
  [
    Simkit.Campaign.Started
      { name = "s"; total = 6; pending = 4; reused = 1; corrupted = 1 };
    Simkit.Campaign.Cell_done
      {
        index = 2;
        address = "cell=2";
        cached = true;
        done_ = 3;
        of_ = 4;
        elapsed_s = 1.5;
        cells_per_s = 2.0;
        eta_s = 0.5;
      };
    Simkit.Campaign.Corrupt_rerun
      { index = 1; address = "cell=1"; path = "cells/cell_00001.json"; reason = "digest" };
    Simkit.Campaign.Finished
      { ran = 2; cached = 1; reused = 1; corrupted = 1; remaining = 0;
        manifest = Some "m.json" };
    Simkit.Campaign.Finished
      { ran = 0; cached = 0; reused = 0; corrupted = 0; remaining = 3;
        manifest = None };
  ]

let test_campaign_event_json_roundtrip () =
  List.iter
    (fun e ->
      match Simkit.Campaign.event_of_json (Simkit.Campaign.event_to_json e) with
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg
      | Ok e' ->
        check Alcotest.bool
          ("round-trips: " ^ Simkit.Campaign.event_to_string e)
          true (e = e'))
    event_samples

let test_campaign_events_jsonl_written () =
  let dir = campaign_dir () in
  let cells = synth_cells 3 in
  (match Simkit.Campaign.run (campaign_config dir) ~name:"synth" ~cells with
  | Error msg -> Alcotest.fail msg
  | Ok _ -> ());
  match Simkit.Eventlog.read_lines (Filename.concat dir "events.jsonl") with
  | Error msg -> Alcotest.fail msg
  | Ok lines ->
    let events = List.map Simkit.Campaign.event_of_json lines in
    check Alcotest.bool "every line parses as an event" true
      (List.for_all Result.is_ok events);
    (* started + one per cell + finished *)
    check Alcotest.int "line count" 5 (List.length lines);
    match (List.hd events, List.nth events 4) with
    | Ok (Simkit.Campaign.Started { total = 3; _ }),
      Ok (Simkit.Campaign.Finished { ran = 3; remaining = 0; _ }) ->
      ()
    | _ -> Alcotest.fail "unexpected event sequence"

(* ---------- eventlog ---------- *)

let test_eventlog_tail_while_writing () =
  with_temp_dir ~prefix:"eventlog" (fun dir ->
      let path = Filename.concat dir "events.jsonl" in
      let n = 500 in
      let stop = Atomic.make false in
      (* The reader hammers read_lines while the writer appends: the
         atomic-line contract means it must never see a torn line (a
         parse error) and must always see a prefix of the stream. *)
      let reader =
        Thread.create
          (fun () ->
            let max_seen = ref 0 in
            while not (Atomic.get stop) do
              (match Simkit.Eventlog.read_lines path with
              | Error msg -> Alcotest.failf "torn or bad line observed: %s" msg
              | Ok lines ->
                let k = List.length lines in
                if k < !max_seen then
                  Alcotest.failf "stream shrank: %d after %d" k !max_seen;
                max_seen := k;
                List.iteri
                  (fun i doc ->
                    match Json.member "i" doc with
                    | Some (Json.Int j) when j = i -> ()
                    | _ -> Alcotest.failf "line %d is not event %d" i i)
                  lines);
              Thread.yield ()
            done)
          ()
      in
      Simkit.Eventlog.with_log ~path (fun log ->
          for i = 0 to n - 1 do
            Simkit.Eventlog.append log
              (Json.Obj
                 [
                   ("i", Json.Int i);
                   ("pad", Json.String (String.make (i mod 97) 'x'));
                 ]);
            if i mod 50 = 0 then Thread.yield ()
          done);
      Atomic.set stop true;
      Thread.join reader;
      match Simkit.Eventlog.read_lines path with
      | Error msg -> Alcotest.fail msg
      | Ok lines -> check Alcotest.int "all lines present" n (List.length lines))

let () =
  Alcotest.run "simkit"
    [
      ( "scale",
        [
          Alcotest.test_case "parse" `Quick test_scale_parse;
          Alcotest.test_case "pick/roundtrip" `Quick test_scale_pick_roundtrip;
        ] );
      ( "benchfile",
        [
          Alcotest.test_case "round-trip" `Quick test_benchfile_roundtrip;
          Alcotest.test_case "legacy and errors" `Quick
            test_benchfile_legacy_and_errors;
          Alcotest.test_case "compare verdicts" `Quick
            test_benchfile_compare_verdicts;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "deterministic" `Quick test_seed_streams_deterministic;
          Alcotest.test_case "independent" `Quick test_seed_streams_independent;
          Alcotest.test_case "tagged" `Quick test_tagged_rng;
        ] );
      ( "trial",
        [
          Alcotest.test_case "collect deterministic" `Quick test_collect_deterministic;
          Alcotest.test_case "censored accounting" `Quick test_collect_censored;
          Alcotest.test_case "summarize" `Quick test_summarize_int;
          Alcotest.test_case "all censored" `Quick test_summarize_all_censored;
        ] );
      ( "pool",
        [
          Alcotest.test_case "collect_par = collect" `Quick test_pool_collect_equivalence;
          Alcotest.test_case "censoring preserved" `Quick test_pool_censored_equivalence;
          Alcotest.test_case "summaries identical" `Quick test_pool_summarize_equivalence;
          Alcotest.test_case "exceptions propagate" `Quick test_pool_exception_propagates;
          Alcotest.test_case "reuse and edge cases" `Quick test_pool_reuse_and_edge_cases;
          Alcotest.test_case "COBRA_DOMAINS parsing" `Quick test_cobra_domains_parsing;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "document" `Quick test_csv_document;
          Alcotest.test_case "file roundtrip" `Quick test_csv_file_roundtrip;
          qtest csv_parse_roundtrip_prop;
        ] );
      ("report", [ Alcotest.test_case "cells" `Quick test_report_cells ]);
      ( "salt_of_tag",
        [
          Alcotest.test_case "scan-starts collision regression" `Quick
            test_salt_of_tag_no_scan_collisions;
          Alcotest.test_case "deterministic" `Quick test_salt_of_tag_deterministic;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float repr" `Quick test_json_float_repr;
          Alcotest.test_case "parse forms" `Quick test_json_parse_forms;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          qtest json_string_roundtrip_prop;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "cells" `Quick test_artifact_cells;
          Alcotest.test_case "tab arity" `Quick test_artifact_tab_arity;
          Alcotest.test_case "passed" `Quick test_artifact_passed;
          Alcotest.test_case "json document" `Quick test_artifact_json_doc;
        ] );
      ( "sink",
        [
          Alcotest.test_case "json file parses" `Quick test_sink_json_writes_parseable_doc;
          Alcotest.test_case "csv raw values" `Quick test_sink_csv_writes_tables;
          Alcotest.test_case "manifest" `Quick test_sink_manifest;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "complete run writes manifest" `Quick
            test_campaign_complete_run;
          Alcotest.test_case "refuses initialised dir without --resume" `Quick
            test_campaign_refuses_without_resume;
          Alcotest.test_case "resume reuses every checkpoint" `Quick
            test_campaign_resume_reuses_all;
          Alcotest.test_case "max-cells then resume is byte-identical" `Quick
            test_campaign_max_cells_then_resume;
          Alcotest.test_case "corrupt checkpoint detected and re-run" `Quick
            test_campaign_corrupt_checkpoint_rerun;
          Alcotest.test_case "tampered meta detected and re-run" `Quick
            test_campaign_meta_mismatch_detected;
          Alcotest.test_case "rejects malformed cell lists" `Quick
            test_campaign_rejects_bad_cells;
          Alcotest.test_case "salt is pure in the address" `Quick
            test_campaign_salt_is_address_pure;
          Alcotest.test_case "second run over a shared cache is all hits" `Quick
            test_campaign_second_run_is_all_cache_hits;
          Alcotest.test_case "cache misses on different identity" `Quick
            test_campaign_cache_misses_on_different_identity;
          Alcotest.test_case "event json round-trips" `Quick
            test_campaign_event_json_roundtrip;
          Alcotest.test_case "events.jsonl written" `Quick
            test_campaign_events_jsonl_written;
        ] );
      ( "cellid",
        [
          qtest cellid_string_roundtrip_prop;
          qtest address_parts_roundtrip_prop;
          Alcotest.test_case "validation" `Quick test_cellid_validation;
          Alcotest.test_case "meta digest sensitivity" `Quick
            test_cellid_meta_digest_sensitivity;
        ] );
      ( "cellstore",
        [
          Alcotest.test_case "put/find with identity checks" `Quick
            test_cellstore_put_find;
          Alcotest.test_case "corrupt record is a miss" `Quick
            test_cellstore_corrupt_record_is_a_miss;
        ] );
      ( "eventlog",
        [
          Alcotest.test_case "tail while writing sees no torn lines" `Quick
            test_eventlog_tail_while_writing;
        ] );
    ]
