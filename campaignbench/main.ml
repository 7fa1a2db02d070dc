(* campaignbench: the campaign benchmark. One invocation runs one
   workload at one seed for a time budget and prints every metric by
   name, unit and sample count, then a JSON summary as its last line.

     main.exe --workload W --seed N --seconds S --trace 0|1 \
       --work DIR --work-fs TYPE --cobra PATH
     main.exe --selfcheck --work DIR --cobra PATH

   [run.sh] builds this program and the cobra CLI and supplies --work
   (the memory-backed work root), its filesystem type and --cobra. See
   README.md for the
   workloads, the metrics and the measured noise sources they avoid. *)

module Json = Simkit.Json
module Campaign = Simkit.Campaign
module Cellstore = Simkit.Cellstore

(* ---------- workloads ---------- *)

type workload = {
  name : string;
  grid : string;  (** inline sweep grid *)
  serve : bool;  (** drive a [cobra serve] daemon *)
  rep_s : float;
      (** nominal seconds of one untraced repetition (serve: one loop
          cycle) on a 2-vCPU host *)
  trace_rep_s : float;  (** the same for one traced repetition *)
}

(* The repetition count is fixed from --seconds before the run starts,
   never by a clock during it: every run at one --seconds does the same
   work, whatever the host's speed, and lasts about --seconds on the
   host the nominal costs were measured on. *)
let repetitions ~seconds ~per ~min_reps =
  max min_reps (int_of_float (Float.round (float_of_int seconds /. per)))

(* A guard, not a budget: a run on a host three times slower than the
   nominal one stops repeating (and says so) so that it still ends well
   inside the time a run is allowed. *)
let overdue ~start ~seconds =
  let late = Unix.gettimeofday () -. start > 3.0 *. float_of_int seconds in
  if late then print_endline "  stopped repeating early: over three times --seconds";
  late

(* In-process campaigns that give end-to-end numbers run at one domain:
   on two vCPUs, two domains spread medians by 5%. The daemon runs at
   two. At one its scheduler fills each one-cell batch from the first
   running job, so of two concurrent jobs one finishes in half the time
   of the other and job latencies come out bimodal; at two it
   interleaves them cell by cell. The traced replay of the serve grid
   runs at the daemon's two domains. *)
let pool_domains wl = if wl.serve then 2 else 1

let all_kernels = "cobra,bips,rwalk,push,pull,push-pull,explore,sis,seir"

(* Four graphs per family at about n = 512, each its own draw: a lane
   batch runs until its slowest trial ends, and COBRA cover times on
   hub-heavy BA graphs are heavy-tailed, so one graph per family made
   campaigns differ by 60% across seeds. Twelve graphs average the tail
   without cutting it: no trial is capped below the kernels' default. *)
let tail_graphs =
  List.concat_map
    (fun (n, r) -> [ Printf.sprintf "ba:%dx2" n; Printf.sprintf "ba:%dx2x0.5" n; Printf.sprintf "random-regular:%dx4" r ])
    [ (512, 512); (517, 518); (521, 522); (527, 528) ]
  |> String.concat ","

(* 35 small graphs x 9 kernels x 4 branchings = 1260 cells: a cold job
   takes most of a second, so the daemon's 50 ms event-tail tick is a
   small share of it. *)
let serve_graphs =
  "cycle:16,cycle:24,cycle:32,cycle:48,complete:8,complete:12,complete:16,\
   complete:24,hypercube:4,hypercube:5,hypercube:6,torus:4x4,torus:5x5,\
   torus:6x6,torus:4x8,petersen,star:16,star:32,wheel:16,wheel:24,path:16,\
   binary-tree:4,binary-tree:5,random-regular:32x3,random-regular:32x4,\
   random-regular:48x4,random-regular:64x4,ba:32x2,ba:48x2,ba:64x2x0.5,\
   ring-of-cliques:4x5,barbell:6x4,lollipop:8x6,circulant:32:1+5,\
   complete-bipartite:6x8"

let workloads =
  [
    {
      name = "sweep-shared";
      grid =
        "name=sweep-shared;graphs=random-regular:8192x4;kernels=" ^ all_kernels
        ^ ";trials=4";
      serve = false;
      rep_s = 1.0;
      trace_rep_s = 1.2;
    };
    {
      name = "sweep-tail";
      grid =
        "name=sweep-tail;graphs=" ^ tail_graphs
        ^ ";kernels=cobra,bips,sis;trials=64;engine=lanes;backend=bigarray";
      serve = false;
      rep_s = 0.9;
      trace_rep_s = 1.3;
    };
    {
      name = "serve-mixed";
      grid =
        "name=serve-mixed;graphs=" ^ serve_graphs ^ ";kernels=" ^ all_kernels
        ^ ";branching=k=1,k=2,k=3,1+0.5;trials=8";
      serve = true;
      rep_s = 1.8;
      trace_rep_s = 1.5;
    };
  ]

(* ---------- small utilities ---------- *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("campaignbench: " ^ m); exit 2) fmt

let ok_or_fail what = function Ok v -> v | Error m -> fail "%s: %s" what m

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile [p] (0..100) of a non-empty sample. *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* The highest whole percentile with at least ten samples beyond it. *)
let tail_percentile n = if n < 20 then None else Some (100 * (n - 10) / n)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let derive seed tag =
  Simkit.Seeds.trial_seed ~master:seed ~salt:(Simkit.Seeds.salt_of_tag tag)
  land 0x3FFF_FFFF

(* VmHWM of a process, in MiB. *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match
    read_file path |> String.split_on_char '\n'
    |> List.find_opt (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
  with
  | None -> nan
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
        float_of_int kb /. 1024.0)

(* Share of CPU time the hypervisor stole since [prev] (/proc/stat). *)
let cpu_times () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | first :: _ ->
    let xs =
      String.split_on_char ' ' first
      |> List.filter (fun s -> s <> "" && s <> "cpu")
      |> List.filter_map float_of_string_opt
    in
    let total = List.fold_left ( +. ) 0.0 xs in
    let steal = match List.nth_opt xs 7 with Some s -> s | None -> 0.0 in
    (steal, total)
  | [] -> (0.0, 0.0)
  | exception Sys_error _ -> (0.0, 0.0)

(* ---------- metrics ---------- *)

type metric = {
  m_name : string;
  unit_ : string;
  value : float;
  samples : int;
  tail : string;  (** the tail percentile of a timing, printed beside it *)
}

let metric m_name unit_ value samples = { m_name; unit_; value; samples; tail = "" }
let na m_name unit_ = metric m_name unit_ 0.0 0

let print_metric m =
  if m.samples = 0 then Printf.printf "  %-24s n/a %s (0 samples)\n" m.m_name m.unit_
  else Printf.printf "  %-24s %.6g %s (%d samples)%s\n" m.m_name m.value m.unit_ m.samples m.tail

(* Median of [xs] as a timing, with the highest percentile that has ten
   samples beyond it (not gated: it measures the host's bursts). *)
let timing ?(unit_ = "s") m_name xs =
  let n = List.length xs in
  let tail =
    match tail_percentile n with
    | Some p -> Printf.sprintf "; p%d %.6g %s" p (percentile (float_of_int p) xs) unit_
    | None -> "; no tail percentile below 20 samples"
  in
  let tail =
    Printf.sprintf "%s; range %.6g-%.6g %s" tail (List.fold_left Float.min infinity xs)
      (List.fold_left Float.max neg_infinity xs) unit_
  in
  { (metric m_name unit_ (median xs) n) with tail }

(* A timed sample: its wall seconds and its start time. Reference runs
   (Calib) are taken between samples, while nothing else of the run is
   working, and a sample is normalised by the two around it. *)
type sample = { wall : float; at : int64 }

let normalised s = Calib.normalise ~reference:(Calib.around s.at) s.wall

(* An end-to-end timing: the median of the normalised samples, printed
   with the wall median and the reference's median beside it. *)
let normalised_timing m_name samples =
  let m = timing m_name (List.map normalised samples) in
  let med f = median (List.map f samples) in
  { m with tail = Printf.sprintf "%s; wall median %.6g s, reference median %.6g s" m.tail (med (fun s -> s.wall)) (med (fun s -> Calib.around s.at)) }

(* Cells per normalised second of each group of samples; the median over
   the groups. *)
let cells_rate groups =
  let rates =
    List.map (fun (cells, samples) -> float_of_int cells /. List.fold_left (fun a s -> a +. normalised s) 0.0 samples) groups
  in
  timing ~unit_:"1/s" "cells_per_s" rates

(* ---------- the run's bookkeeping ---------- *)

type ctx = {
  wl : workload;
  master : int;
  root : string;  (** this run's directory under the work root *)
  mutable seq : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mu : Mutex.t;
}

let new_ctx wl ~seed ~root =
  Sys.mkdir root 0o755;
  {
    wl; master = derive seed wl.name; root;
    seq = 0; attempted = 0; failed = 0; failures = []; mu = Mutex.create ();
  }

let fresh ctx tag =
  Mutex.lock ctx.mu;
  ctx.seq <- ctx.seq + 1;
  let d = Filename.concat ctx.root (Printf.sprintf "%s-%04d" tag ctx.seq) in
  Mutex.unlock ctx.mu;
  d

(* One operation: counted as attempted; [Error] counts as failed. *)
let check ctx what = function
  | Ok () ->
    Mutex.lock ctx.mu;
    ctx.attempted <- ctx.attempted + 1;
    Mutex.unlock ctx.mu
  | Error msg ->
    Mutex.lock ctx.mu;
    ctx.attempted <- ctx.attempted + 1;
    ctx.failed <- ctx.failed + 1;
    if List.length ctx.failures < 10 then ctx.failures <- (what ^ ": " ^ msg) :: ctx.failures;
    Mutex.unlock ctx.mu

let load_grid wl = ok_or_fail "grid" (Sweep.Grid.load wl.grid)

let config ?cache ~domains ~master dir =
  {
    Campaign.dir;
    master;
    resume = false;
    max_cells = None;
    domains = Some domains;
    cache;
    progress = ignore;
  }

(* [n] timed set-ups after one reference run: grid load + expansion +
   plan into a fresh directory, what a campaign pays before its first
   cell. *)
let setup_samples ctx n =
  Calib.reference ();
  let once () =
    let dir = fresh ctx "setup" in
    let t0 = Tracer.now_ns () in
    let grid = load_grid ctx.wl in
    let cells = Sweep.Grid.cells grid in
    let planned = Campaign.plan (config ~domains:1 ~master:ctx.master dir) ~name:grid.name ~cells in
    let wall = Tracer.seconds_since t0 in
    ignore (ok_or_fail "plan" planned);
    rm_rf dir;
    { wall; at = t0 }
  in
  List.init n (fun _ -> once ())

(* A batch [Campaign.run] into a fresh directory, removed afterwards:
   wall time, and the report with the manifest's digest. *)
let batch_campaign ctx ?cache ?(domains = 1) ~master grid cells =
  let dir = fresh ctx "campaign" in
  let t0 = Tracer.now_ns () in
  let r = Campaign.run (config ?cache ~domains ~master dir) ~name:grid.Sweep.Grid.name ~cells in
  let dt = Tracer.seconds_since t0 in
  let out =
    match r with
    | Error m -> Error m
    | Ok { Campaign.manifest = None; _ } -> Error "campaign finished without a manifest"
    | Ok ({ Campaign.manifest = Some path; _ } as rep) -> Ok (rep, Digest.to_hex (Digest.string (read_file path)))
  in
  rm_rf dir;
  (dt, out)

(* [batch_campaign] as a sample. *)
let sampled_campaign ctx ?cache ~master grid cells =
  let at = Tracer.now_ns () in
  let wall, r = batch_campaign ctx ?cache ~master grid cells in
  ({ wall; at }, r)

let same_digest ~expected what = function
  | Error m -> Error m
  | Ok (_, d) when d = expected -> Ok ()
  | Ok (_, d) -> Error (Printf.sprintf "%s manifest %s differs from the expected %s" what d expected)

let counts_ok what ~ran ~cached total = function
  | Error m -> Error m
  | Ok ((rep : Campaign.report), _) ->
    if rep.ran = ran && rep.cached = cached && rep.total = total then Ok ()
    else Error (Printf.sprintf "%s: ran %d cached %d of %d (expected %d/%d)" what rep.ran rep.cached rep.total ran cached)

let digest_of = function Ok (_, d) -> d | Error _ -> ""

(* ---------- batch workloads, untraced ---------- *)

let warm_per_rep = 10

(* One repetition: a plain campaign (no cache: what [cobra sweep] runs),
   a cold job (a fresh result cache: every cell runs and is stored) and
   [warm_per_rep] warm jobs (resubmissions to fresh directories: every
   cell a hit), with a reference run before the plain campaign, the cold
   job and the warm jobs. Every repetition runs at the run's single
   master, so each must reproduce the warm-up campaign's manifest. *)
let batch_rep ctx grid cells ~expected =
  let total = List.length cells in
  let matches what ~ran ~cached r =
    check ctx what
      (Result.bind (counts_ok what ~ran ~cached total r) (fun () -> same_digest ~expected what r))
  in
  Calib.reference ();
  let plain_s, plain = sampled_campaign ctx ~master:ctx.master grid cells in
  matches "plain campaign" ~ran:total ~cached:0 plain;
  let store_dir = fresh ctx "cache" in
  let store = Cellstore.open_ ~dir:store_dir in
  Calib.reference ();
  let cold_s, cold = sampled_campaign ctx ~cache:store ~master:ctx.master grid cells in
  matches "cold job" ~ran:total ~cached:0 cold;
  Calib.reference ();
  let warm_s =
    List.init warm_per_rep (fun _ ->
        let dt, warm = sampled_campaign ctx ~cache:store ~master:ctx.master grid cells in
        matches "warm job" ~ran:0 ~cached:total warm;
        dt)
  in
  rm_rf store_dir;
  (plain_s, cold_s, warm_s)

let run_batch ctx ~seconds =
  ignore (setup_samples ctx 10);
  let grid = load_grid ctx.wl in
  let cells = Sweep.Grid.cells grid in
  let total = List.length cells in
  (* Untimed warm-up: fills the caches and lazy set-up, and fixes the
     manifest every repetition must reproduce. *)
  let _, first = batch_campaign ctx ~master:ctx.master grid cells in
  check ctx "warm-up campaign" (counts_ok "warm-up" ~ran:total ~cached:0 total first);
  let expected = digest_of first in
  let n = repetitions ~seconds ~per:ctx.wl.rep_s ~min_reps:3 in
  let start = Unix.gettimeofday () in
  let rec loop acc i =
    if i = n || (i >= 3 && overdue ~start ~seconds) then List.rev acc
    else begin
      (* Each repetition starts from a collected heap, so the peak
         resident size does not depend on where a major cycle fell.
         Set-ups are sampled in every repetition, so their median
         spans the run like the others. *)
      Gc.full_major ();
      let setup = setup_samples ctx 4 in
      loop ((setup, batch_rep ctx grid cells ~expected) :: acc) (i + 1)
    end
  in
  let setup, reps = List.split (loop [] 0) in
  Calib.reference ();
  let setup = List.concat setup in
  let plain = List.map (fun (p, _, _) -> p) reps
  and cold = List.map (fun (_, c, _) -> c) reps
  and warm = List.concat_map (fun (_, _, w) -> w) reps in
  let groups = List.map (fun (p, c, w) -> (total * (2 + List.length w), p :: c :: w)) reps in
  Printf.printf "  %d repetitions of (plain campaign, cold job, %d warm jobs), %d cells each\n"
    (List.length reps) warm_per_rep total;
  [
    normalised_timing "setup_s" setup;
    normalised_timing "campaign_s" plain;
    normalised_timing "job_cold_p50_s" cold;
    normalised_timing "job_warm_p50_s" warm;
    cells_rate groups;
    metric "peak_rss_mib" "MiB" (peak_rss_mib "self") 1;
  ]

(* ---------- the serve workload ---------- *)

type job = {
  kind : [ `Prime | `Cold | `Warm ];
  j_master : int;
  total_s : float;
  at : int64;  (** submit time *)
  submit_s : float;
  queue_wait_s : float;  (** admission to first cell done, daemon-stamped *)
  watch_lag_s : float;  (** last cell done (daemon-stamped) to terminal status seen *)
  digest : (string, string) result;
}

let kind_name = function `Prime -> "prime" | `Cold -> "cold" | `Warm -> "warm"

let json_int key doc = match Json.member key doc with Some (Json.Int i) -> Some i | _ -> None
let json_str key doc = Option.bind (Json.member key doc) Json.to_string_opt

(* Submit one job, watch it to its terminal status and check it: done,
   every cell run (cold) or served from the cache (warm), manifest
   present. The job's directory is removed once its manifest is read. *)
let serve_job ctx ~socket ~client ~kind ~master ~total =
  let dir = Unix.realpath ctx.root ^ "/" ^ Filename.basename (fresh ctx (kind_name kind)) in
  let t0 = Tracer.now_ns () in
  let submit =
    { Serve.Protocol.client; grid = `Inline ctx.wl.grid; out = dir; master; resume = false }
  in
  let failed msg =
    {
      kind; j_master = master; total_s = nan; at = t0; submit_s = nan; queue_wait_s = nan;
      watch_lag_s = nan; digest = Error msg;
    }
  in
  let job =
    match Serve.Client.submit ~socket submit with
    | Error m -> failed ("submit: " ^ m)
    | Ok id -> (
      let submit_s = Tracer.seconds_since t0 in
      let first = ref nan and last = ref nan in
      let on_event = function
        | Campaign.Cell_done { elapsed_s; _ } ->
          if Float.is_nan !first then first := elapsed_s;
          last := elapsed_s
        | _ -> ()
      in
      match Serve.Client.watch ~socket ~job:id on_event with
      | Error m -> failed ("watch: " ^ m)
      | Ok doc ->
        let total_s = Tracer.seconds_since t0 in
        let ran, cached = match kind with `Warm -> (0, total) | `Prime | `Cold -> (total, 0) in
        let digest =
          if json_str "status" doc <> Some "done" then
            Error (Printf.sprintf "job %s ended %s" id (Option.value (json_str "status" doc) ~default:"?"))
          else if json_int "ran" doc <> Some ran || json_int "cached" doc <> Some cached then
            Error (Printf.sprintf "job %s: expected %d ran, %d cached" id ran cached)
          else
            match json_str "manifest" doc with
            | None -> Error (Printf.sprintf "job %s: no manifest" id)
            | Some path -> Ok (Digest.to_hex (Digest.string (read_file path)))
        in
        {
          kind; j_master = master; total_s; at = t0; submit_s; queue_wait_s = !first;
          watch_lag_s = total_s -. (submit_s +. !last); digest;
        })
  in
  rm_rf dir;
  job

(* The daemon this run started, killed at exit if it is still alive. *)
let live_daemon : int option ref = ref None

type daemon = { pid : int; socket : string; cache : string; start_s : float }

let start_daemon ctx ~cobra =
  let socket = Filename.concat ctx.root "d.sock" in
  let cache = Unix.realpath ctx.root ^ "/cache" in
  let log = Unix.openfile (Filename.concat ctx.root "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Tracer.now_ns () in
  let pid =
    Unix.create_process cobra
      [| cobra; "serve"; "--socket"; socket; "--cache"; cache; "--domains";
         "2"; "--max-jobs"; "2" |]
      null log log
  in
  live_daemon := Some pid;
  Unix.close log;
  Unix.close null;
  let rec wait_ready tries =
    match Serve.Client.request ~socket Serve.Protocol.Stats with
    | Ok _ -> Tracer.seconds_since t0
    | Error m ->
      if tries = 0 then fail "daemon did not accept connections: %s" m
      else begin
        Thread.delay 0.001;
        wait_ready (tries - 1)
      end
  in
  let start_s = wait_ready 20_000 in
  { pid; socket; cache; start_s }

let stop_daemon d =
  ignore (Serve.Client.request ~socket:d.socket Serve.Protocol.Shutdown);
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries > 0 ->
      Thread.delay 0.01;
      reap (tries - 1)
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap 1000;
  live_daemon := None

(* Client [k]'s cold master. *)
let cold_master ctx k = derive ctx.master (Printf.sprintf "cold:%d" k)

(* A reusable two-party barrier. *)
let barrier () =
  let mu = Mutex.create () and cond = Condition.create () in
  let arrived = ref 0 and generation = ref 0 in
  fun () ->
    Mutex.lock mu;
    let g = !generation in
    incr arrived;
    if !arrived = 2 then begin
      arrived := 0;
      incr generation;
      Condition.broadcast cond
    end
    else while !generation = g do Condition.wait cond mu done;
    Mutex.unlock mu

(* The closed loop: two clients, each alternating a cold job and a warm
   job for [cycles] cycles, meeting at a barrier after every job. So two
   cold jobs run side by side, then two warm ones: the same overlap in
   every phase of every run. (A cold job beside a warm one would pace the
   warm job: the daemon's scheduler interleaves running jobs cell by
   cell, so the warm job would finish with the cold one.) Each cycle
   starts with a reference run by client 0 while the daemon is idle, and
   one more closes the loop; the cycle's wall time, from after it to the
   last barrier, is a sample of the loop's throughput.

   A cold job runs at its client's own master, whose cache records the
   client evicts after the job, so every cell runs and every cold job of
   a client repeats the same work. A warm job resubmits the run's
   master, primed into the cache, so every cell is a hit. *)
let serve_loop ctx d ~cycles ~seconds ~total cells =
  let store = Cellstore.open_ ~dir:d.cache in
  let results = ref [] and mu = Mutex.create () in
  let record j =
    Mutex.lock mu;
    results := j :: !results;
    Mutex.unlock mu
  in
  let meet = barrier () in
  let t_start = Unix.gettimeofday () in
  let cycle_t0 = ref 0L and cycle_samples = ref [] in
  (* Set before the phase's barrier and read after it, so both clients
     see the same value and run the same number of cycles. *)
  let late = Atomic.make false in
  let client k () =
    let name = Printf.sprintf "c%d" k and master = cold_master ctx k in
    let cold () =
      record (serve_job ctx ~socket:d.socket ~client:name ~kind:`Cold ~master ~total);
      List.iter
        (fun c ->
          try Sys.remove (Cellstore.path store ~master (Campaign.cellid c)) with Sys_error _ -> ())
        cells;
      meet ()
    and warm () =
      record (serve_job ctx ~socket:d.socket ~client:name ~kind:`Warm ~master:ctx.master ~total);
      if k = 0 && overdue ~start:t_start ~seconds then Atomic.set late true;
      meet ();
      if k = 0 then
        cycle_samples := { wall = Tracer.seconds_since !cycle_t0; at = !cycle_t0 } :: !cycle_samples
    in
    let rec cycle i =
      if i < cycles && not (Atomic.get late) then begin
        if k = 0 then begin
          Calib.reference ();
          cycle_t0 := Tracer.now_ns ()
        end;
        meet ();
        cold ();
        warm ();
        cycle (i + 1)
      end
    in
    cycle 0
  in
  let threads = List.init 2 (fun k -> Thread.create (client k) ()) in
  List.iter Thread.join threads;
  Calib.reference ();
  (List.rev !results, List.rev !cycle_samples)

(* Start the daemon, prime the cache with the run's master, run the
   loop, stop the daemon, then check every job's manifest against
   in-process batch [Campaign.run]s of the same grid and master, at one
   domain with the daemon gone. Their timings are the workload's
   [campaign_s]: three per master run before the daemon starts and three
   after it stops, so that their median spans the run. *)
let serve_session ctx ~cobra ~cycles ~seconds =
  let grid = load_grid ctx.wl in
  let cells = Sweep.Grid.cells grid in
  let total = List.length cells in
  let masters = [ ctx.master; cold_master ctx 0; cold_master ctx 1 ] in
  let references k =
    List.concat_map
      (fun m ->
        List.init k (fun _ ->
            Calib.reference ();
            let sample, r = sampled_campaign ctx ~master:m grid cells in
            check ctx "batch reference" (counts_ok "reference" ~ran:total ~cached:0 total r);
            (m, (sample, digest_of r))))
      masters
  in
  let before = references 3 in
  let d = start_daemon ctx ~cobra in
  let prime = serve_job ctx ~socket:d.socket ~client:"prime" ~kind:`Prime ~master:ctx.master ~total in
  let jobs, cycle_samples = serve_loop ctx d ~cycles ~seconds ~total cells in
  let daemon_rss = peak_rss_mib (string_of_int d.pid) in
  (match Serve.Client.request ~socket:d.socket Serve.Protocol.Stats with
  | Ok doc -> (
    match Json.member "cache" doc with
    | Some c ->
      Printf.printf "  daemon cache: %d hits, %d misses, %d puts\n"
        (Option.value (json_int "hits" c) ~default:0)
        (Option.value (json_int "misses" c) ~default:0)
        (Option.value (json_int "puts" c) ~default:0)
    | None -> ())
  | Error m -> check ctx "stats" (Error m));
  stop_daemon d;
  let refs = before @ references 3 in
  List.iter
    (fun m ->
      match List.sort_uniq compare (List.filter_map (fun (m', (_, d)) -> if m' = m then Some d else None) refs) with
      | [ _ ] -> ()
      | _ -> check ctx "batch reference" (Error "repeated batch references disagree"))
    masters;
  List.iter
    (fun j ->
      let expected = snd (List.assoc j.j_master refs) in
      check ctx (kind_name j.kind ^ " job")
        (match j.digest with
        | Error m -> Error m
        | Ok dg when dg = expected -> Ok ()
        | Ok dg -> Error (Printf.sprintf "manifest %s differs from the batch reference %s" dg expected)))
    (prime :: jobs);
  Printf.printf "  daemon start-to-accept %.4f s; %d loop jobs in %d cycles; %d batch references\n"
    d.start_s (List.length jobs) (List.length cycle_samples) (List.length refs);
  (jobs, cycle_samples, List.map (fun (_, (sample, _)) -> sample) refs, daemon_rss)

(* Set-ups in blocks of four, each block beside its own reference run. *)
let setup_blocks ctx blocks = List.concat (List.init blocks (fun _ -> setup_samples ctx 4))

let run_serve ctx ~cobra ~seconds =
  ignore (setup_samples ctx 3);
  let before = setup_blocks ctx 3 in
  let cycles = repetitions ~seconds ~per:ctx.wl.rep_s ~min_reps:3 in
  let jobs, cycle_samples, refs, daemon_rss = serve_session ctx ~cobra ~cycles ~seconds in
  let setup = before @ setup_blocks ctx 3 in
  Calib.reference ();
  let ok = List.filter (fun j -> Result.is_ok j.digest) jobs in
  let of_kind k =
    List.filter_map (fun j -> if j.kind = k then Some { wall = j.total_s; at = j.at } else None) ok
  in
  (* A cycle finishes four jobs of every cell. *)
  let total = List.length (Sweep.Grid.cells (load_grid ctx.wl)) in
  [
    normalised_timing "setup_s" setup;
    normalised_timing "campaign_s" refs;
    normalised_timing "job_cold_p50_s" (of_kind `Cold);
    normalised_timing "job_warm_p50_s" (of_kind `Warm);
    cells_rate (List.map (fun c -> (4 * total, [ c ])) cycle_samples);
    metric "peak_rss_mib" "MiB" daemon_rss 1;
  ]

(* ---------- traced runs ---------- *)

(* Per-layer numbers of one traced repetition: a traced plain campaign
   (graph, kernel, sweep, json, campaign, eventlog and pool layers) and
   a traced cold + warm pair on one fresh result cache (cellstore). *)
type layer_rep = {
  values : (string * (string * float * int)) list;  (** name -> unit, value, samples *)
  counts : (string * float) list;  (** exact counts that must repeat *)
}

let traced_rep ctx grid ~expected ?trace_out () =
  let plain = Tracer.create () and cached = Tracer.create () in
  let domains = pool_domains ctx.wl in
  let traced tr ?cache what =
    let dir = fresh ctx "traced" in
    let t0 = Tracer.now_ns () in
    let r = Traced.campaign tr (config ?cache ~domains ~master:ctx.master dir) grid in
    let dt = Tracer.seconds_since t0 in
    check ctx ("traced " ^ what)
      (match r with
      | Error m -> Error m
      | Ok path ->
        let d = Digest.to_hex (Digest.string (read_file path)) in
        if d = expected then Ok ()
        else Error (Printf.sprintf "traced manifest %s differs from the untraced %s" d expected));
    (dir, dt)
  in
  let pdir, plain_s = traced plain "plain campaign" in
  check ctx "json replay"
    (match Traced.json_replay plain pdir with
    | 0 -> Ok ()
    | n -> Error (Printf.sprintf "%d artifacts did not re-encode byte-identically" n));
  rm_rf pdir;
  let store_dir = fresh ctx "cache" in
  let store = Cellstore.open_ ~dir:store_dir in
  let cdir, _ = traced cached ~cache:store "cold job" in
  let wdir, _ = traced cached ~cache:store "warm job" in
  List.iter rm_rf [ cdir; wdir; store_dir ];
  Option.iter
    (fun path ->
      Tracer.append_jsonl plain ~path ~campaign:"plain";
      Tracer.append_jsonl cached ~path ~campaign:"cold+warm")
    trace_out;
  let s tr name = Tracer.total tr name in
  let c tr name = Tracer.counter tr name in
  let build_s, builds = s plain "graph.build" in
  let trials_s, _ = s plain "kernel.trials" in
  let agg_s, n_agg = s plain "sweep.aggregate" in
  let exec_s, n_exec = s plain "campaign.execute_cell" in
  let run_s, _ = s plain "cell.run" in
  let enc_s, n_enc = s plain "json.encode" in
  let append_s, lines = s plain "eventlog.append" in
  let plan_s, n_plan = s plain "campaign.plan" in
  let fin_s, n_fin = s plain "campaign.finalize" in
  let pool_wall = Tracer.extent plain "pool.run" in
  let find_s, n_find = s cached "cellstore.find" in
  let put_s, n_put = s cached "cellstore.put" in
  let st = Cellstore.stats store in
  let trials = c plain "kernel.trials" in
  let per_round fam =
    let r = c plain ("kernel.rounds." ^ fam) in
    if r = 0.0 then (0.0, 0)
    else (c plain ("kernel.s." ^ fam) /. r *. 1e9, int_of_float (c plain ("kernel.cells." ^ fam)))
  in
  let rr4_ns, rr4_n = per_round "rr4" and ba_ns, ba_n = per_round "ba" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let values =
    [
      ("graph.build_s", ("s", build_s, builds));
      ("graph.builds", ("count", c plain "graph.builds", 1));
      ("graph.distinct_ratio", ("ratio", ratio (float_of_int (Tracer.distinct plain)) (c plain "graph.builds"), builds));
      ("kernel.trials_s", ("s", trials_s, builds));
      ("kernel.trials", ("count", trials, 1));
      ("kernel.rounds", ("count", c plain "kernel.rounds", 1));
      ("kernel.round_ns.rr4", ("ns", rr4_ns, rr4_n));
      ("kernel.round_ns.ba", ("ns", ba_ns, ba_n));
      ("kernel.sliced_ratio", ("ratio", ratio (c plain "kernel.sliced") trials, int_of_float trials));
      ("kernel.censored_ratio", ("ratio", ratio (c plain "kernel.censored") trials, int_of_float trials));
      ("sweep.aggregate_s", ("s", agg_s, n_agg));
      ("json.encode_s", ("s", enc_s, n_enc));
      ("json.bytes", ("bytes", c plain "json.bytes", n_enc));
      ("campaign.plan_s", ("s", plan_s, n_plan));
      ("campaign.persist_s", ("s", exec_s -. run_s, n_exec));
      ("campaign.finalize_s", ("s", fin_s, n_fin));
      ("campaign.bytes_written", ("bytes", c plain "campaign.bytes_written", 1));
      ("eventlog.append_s", ("s", append_s, lines));
      ("eventlog.lines", ("count", float_of_int lines, 1));
      ("cellstore.find_s", ("s", find_s, n_find));
      ("cellstore.put_s", ("s", put_s, n_put));
      ("cellstore.hits", ("count", float_of_int st.Cellstore.hits, 1));
      ("cellstore.misses", ("count", float_of_int st.misses, 1));
      ("cellstore.puts", ("count", float_of_int st.puts, 1));
      ("cellstore.hit_ratio", ("ratio", ratio (float_of_int st.hits) (float_of_int (st.hits + st.misses)), st.hits + st.misses));
      ("pool.busy_s", ("s", exec_s, n_exec));
      ("pool.idle_ratio", ("ratio", 1.0 -. ratio exec_s (float_of_int domains *. pool_wall), n_exec));
      ("trace.accounted_ratio", ("ratio", ratio (build_s +. trials_s +. agg_s) exec_s, n_exec));
    ]
  in
  let counts =
    List.filter_map
      (fun (name, (unit_, v, _)) -> if unit_ = "count" || unit_ = "bytes" then Some (name, v) else None)
      values
  in
  ({ values; counts }, plain_s)

(* Accounting tolerance: the build + trials + aggregate spans nest inside
   the cell's execute_cell span, so their sum can never exceed it (1%
   slack for clock reads); on the batch workloads, whose cells are tens
   of milliseconds of build and kernel work beside a sub-millisecond
   record write, they must also cover at least 95% of it. *)
let accounted_ok ctx r =
  let v = match List.assoc_opt "trace.accounted_ratio" r.values with Some (_, v, _) -> v | None -> nan in
  if v > 1.01 then Error (Printf.sprintf "accounted ratio %.4f exceeds 1.01" v)
  else if (not ctx.wl.serve) && v < 0.95 then Error (Printf.sprintf "accounted ratio %.4f below 0.95" v)
  else Ok ()

let layer_metrics ctx reps ~overhead ~serve_jobs =
  let first = List.hd reps in
  List.iter
    (fun r ->
      check ctx "repeated counts"
        (if r.counts = first.counts then Ok () else Error "a traced repetition's counts differ from the first's");
      check ctx "trace accounting" (accounted_ok ctx r))
    reps;
  let layer =
    List.map
      (fun (name, (unit_, _, samples)) ->
        let vs = List.map (fun r -> let _, v, _ = List.assoc name r.values in v) reps in
        let n = samples * List.length reps in
        if samples = 0 then na name unit_ else metric name unit_ (median vs) n)
      first.values
  in
  let serve =
    match serve_jobs with
    | [] -> List.map (fun n -> na n "s") [ "serve.submit_s"; "serve.queue_wait_s"; "serve.watch_lag_s" ]
    | jobs ->
      let col f = List.map f jobs in
      [
        timing "serve.submit_s" (col (fun j -> j.submit_s));
        timing "serve.queue_wait_s" (col (fun j -> j.queue_wait_s));
        timing "serve.watch_lag_s" (col (fun j -> j.watch_lag_s));
      ]
  in
  layer @ serve @ [ overhead ]

let run_traced ctx ~cobra ~seconds =
  let grid = load_grid ctx.wl in
  let cells = Sweep.Grid.cells grid in
  let total = List.length cells in
  if not (Sys.file_exists "_bench_out") then Sys.mkdir "_bench_out" 0o755;
  let trace_out = Filename.concat "_bench_out" (ctx.wl.name ^ "-spans.jsonl") in
  if Sys.file_exists trace_out then Sys.remove trace_out;
  let start = Unix.gettimeofday () in
  let serve_jobs =
    if ctx.wl.serve then begin
      let cycles = repetitions ~seconds:(seconds / 2) ~per:ctx.wl.rep_s ~min_reps:2 in
      let jobs, _, _, _ = serve_session ctx ~cobra ~cycles ~seconds in
      List.filter (fun j -> Result.is_ok j.digest) jobs
    end
    else []
  in
  let budget = if ctx.wl.serve then seconds / 2 else seconds in
  let n = repetitions ~seconds:budget ~per:ctx.wl.trace_rep_s ~min_reps:2 in
  let rec loop acc expected i =
    if i = n || (i >= 2 && overdue ~start ~seconds) then List.rev acc
    else begin
      let u_s, u =
        batch_campaign ctx ~domains:(pool_domains ctx.wl) ~master:ctx.master grid cells
      in
      check ctx "untraced campaign" (counts_ok "untraced" ~ran:total ~cached:0 total u);
      let expected = match expected with Some e -> e | None -> digest_of u in
      check ctx "untraced campaign" (same_digest ~expected "untraced" u);
      (* Spans of the first repetition are written out; the rest only
         feed the medians. *)
      let trace_out = if i = 0 then Some trace_out else None in
      let r, t_s = traced_rep ctx grid ~expected ?trace_out () in
      loop ((r, u_s, t_s) :: acc) (Some expected) (i + 1)
    end
  in
  let reps = loop [] None 0 in
  let untraced = List.map (fun (_, u, _) -> u) reps and traced = List.map (fun (_, _, t) -> t) reps in
  Printf.printf "  %d traced repetitions; traced campaign %.4f s vs untraced %.4f s (medians)\n"
    (List.length reps) (median traced) (median untraced);
  Printf.printf "  spans of the first repetition written to %s\n" trace_out;
  let overhead =
    metric "trace.overhead_ratio" "ratio" (median traced /. median untraced) (List.length reps)
  in
  layer_metrics ctx (List.map (fun (r, _, _) -> r) reps) ~overhead ~serve_jobs

(* ---------- self checks ---------- *)

(* Two same-seed traced passes over a shrunk copy of each workload must
   agree on every exact count and manifest digest; then a three-seed
   pass prints kernel.rounds per workload at full size. *)
let selfcheck ~work =
  (* Two trials and one branching; sweep-tail keeps its single lane
     batch of 64 trials. *)
  let shrink wl =
    let field f =
      if String.starts_with ~prefix:"trials=" f && wl.name <> "sweep-tail" then "trials=2"
      else if String.starts_with ~prefix:"branching=" f then "branching=k=2"
      else f
    in
    { wl with grid = String.split_on_char ';' wl.grid |> List.map field |> String.concat ";" }
  in
  let pass wl seed =
    let root = Filename.concat work (Printf.sprintf "check-%s-%d-%d" wl.name seed (Unix.getpid ())) in
    let ctx = new_ctx wl ~seed ~root in
    let grid = load_grid wl in
    let _, u =
      batch_campaign ctx ~domains:(pool_domains wl) ~master:ctx.master grid
        (Sweep.Grid.cells grid)
    in
    let r, _ = traced_rep ctx grid ~expected:(digest_of u) () in
    rm_rf ctx.root;
    (r.counts, digest_of u, ctx.failed)
  in
  let bad = ref 0 in
  List.iter
    (fun wl ->
      let small = shrink wl in
      let c1, d1, f1 = pass small 11 and c2, d2, f2 = pass small 11 in
      let same = c1 = c2 && d1 = d2 && f1 = 0 && f2 = 0 in
      if not same then incr bad;
      Printf.printf "%-13s same-seed repeat: %s (%d exact counts, manifest %s)\n" wl.name
        (if same then "identical" else "DIFFERENT") (List.length c1) d1)
    workloads;
  List.iter
    (fun wl ->
      let rounds =
        List.map (fun seed -> let c, _, f = pass wl seed in if f > 0 then incr bad; List.assoc "kernel.rounds" c) [ 1; 2; 3 ]
      in
      let lo = List.fold_left min infinity rounds and hi = List.fold_left max 0.0 rounds in
      Printf.printf "%-13s kernel.rounds at seeds 1,2,3: %s (spread %.2f%% of the median)\n" wl.name
        (String.concat ", " (List.map (Printf.sprintf "%.0f") rounds))
        (100.0 *. (hi -. lo) /. median rounds))
    workloads;
  if !bad > 0 then exit 1

(* ---------- command line ---------- *)

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let work = ref "" and work_fs = ref "unknown" and cobra = ref "" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep-shared | sweep-tail | serve-mixed");
      ("--seed", Arg.Set_int seed, "N seed the run's inputs derive from");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--work", Arg.Set_string work, "DIR work root for campaigns, caches and the socket");
      ("--work-fs", Arg.Set_string work_fs, "TYPE filesystem type of the work root, for the stamp");
      ("--cobra", Arg.Set_string cobra, "PATH the cobra CLI, for the daemon");
      ("--selfcheck", Arg.Set self, " seed and repeatability checks");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "campaignbench --workload W --seed N --seconds S --trace 0|1 --work DIR --cobra PATH";
  if !work = "" || not (Sys.file_exists !work) then fail "--work must name an existing directory";
  if !self then selfcheck ~work:!work
  else begin
    let wl =
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> w
      | None -> fail "unknown workload %S" !workload
    in
    if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
    if !seconds < 1 then fail "--seconds must be at least 1";
    if wl.serve && not (Sys.file_exists !cobra) then fail "--cobra must name the cobra CLI";
    let ctx =
      new_ctx wl ~seed:!seed ~root:(Filename.concat !work (Printf.sprintf "%s-%d" wl.name (Unix.getpid ())))
    in
    at_exit (fun () ->
        Option.iter
          (fun pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          !live_daemon;
        try rm_rf ctx.root with Unix.Unix_error _ | Sys_error _ -> ());
    Printf.printf "campaignbench %s seed=%d master=%d seconds=%d trace=%d\n" wl.name !seed ctx.master
      !seconds !trace;
    Printf.printf "  work root %s on %s; traced pool domains %d; host vCPUs %d\n" !work !work_fs
      (pool_domains wl) (Domain.recommended_domain_count ());
    let steal0 = cpu_times () in
    let metrics =
      if !trace = 1 then run_traced ctx ~cobra:!cobra ~seconds:!seconds
      else if wl.serve then run_serve ctx ~cobra:!cobra ~seconds:!seconds
      else run_batch ctx ~seconds:!seconds
    in
    let steal1 = cpu_times () in
    let steal = (fst steal1 -. fst steal0) /. Float.max 1.0 (snd steal1 -. snd steal0) in
    let metrics =
      if !trace = 1 then
        metrics
        @ [ metric "failed_ratio" "ratio" (float_of_int ctx.failed /. float_of_int (max 1 ctx.attempted)) ctx.attempted ]
      else metrics
    in
    List.iter print_metric metrics;
    Printf.printf "  host steal share %.4f (information only)\n" steal;
    Printf.printf "  %d attempted, %d failed\n" ctx.attempted ctx.failed;
    List.iter (fun f -> Printf.printf "  failure: %s\n" f) (List.rev ctx.failures);
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (ctx.failed = 0));
              ("attempted", Json.Int ctx.attempted);
              ("failed", Json.Int ctx.failed);
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun m -> (m.m_name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
                     metrics) );
            ]))
  end
