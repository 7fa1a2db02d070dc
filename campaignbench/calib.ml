(* The reference: fixed work, timed beside every measured sample, that
   lets a run cancel the host's speed level.

   The reference host changes speed in levels that last seconds to
   minutes: identical campaigns read 0.38 s, then 0.70 s for a dozen
   repetitions, then 0.38 s again, and whole runs come out 40% slower
   than their neighbours (README.md, noise source 6). A pure arithmetic
   loop does not see these levels (its time moves by 4%), so they are not
   clock changes; a pointer walk over a table sees them several times
   over, so they are the shared cache and memory under another tenant's
   load. What does follow them is work of the same kind as a campaign: a
   small graph process that allocates as it goes.

   So the reference is a coalescing-branching walk (k = 2) over a fixed
   random graph of 8192 vertices, run to cover, written here and sharing
   no code with the repository: a change to the library cannot move it.
   It takes about 40 ms. Every run of it is logged with its start time,
   and a timing [t] is reported as [t *. nominal /. r], where [r] is the
   mean of the reference runs just before and just after it. *)

let n = 8192

(* xorshift64 step, on OCaml's 63-bit ints. *)
let xorshift s =
  let x = !s in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  s := x;
  x land max_int

(* Four neighbours per vertex: the next vertex on a ring (so the walk
   always covers) and three drawn from a fixed stream. *)
let graph =
  lazy
    (let s = ref 0x1234567 in
     Array.init (n * 4) (fun i -> if i land 3 = 0 then ((i / 4) + 1) mod n else xorshift s mod n))

let sink = ref 0

let work () =
  let g = Lazy.force graph in
  let s = ref 0x9876543 in
  let seen = Array.make n false in
  seen.(0) <- true;
  let covered = ref 1 and active = ref [ 0 ] and rounds = ref 0 in
  while !covered < n do
    incr rounds;
    let next = ref [] in
    List.iter
      (fun v ->
        for _ = 1 to 2 do
          let u = g.((v * 4) + (xorshift s land 3)) in
          if not seen.(u) then begin
            seen.(u) <- true;
            incr covered
          end;
          next := u :: !next
        done)
      !active;
    active := List.sort_uniq compare !next
  done;
  sink := !rounds

(* Every reference run so far, newest first: start time, seconds. *)
let log : (int64 * float) list ref = ref []

(* Run the reference once and log it. *)
let reference () =
  ignore (Lazy.force graph);
  let t0 = Tracer.now_ns () in
  work ();
  log := (t0, Tracer.seconds_since t0) :: !log

(* Seconds of the reference around a sample that started at [at]: the
   mean of the last run before it and the first run after it. *)
let around at =
  let before = List.find_opt (fun (t, _) -> t <= at) !log in
  let after = List.fold_left (fun acc (t, r) -> if t > at then Some r else acc) None !log in
  match (before, after) with
  | Some (_, a), Some b -> (a +. b) /. 2.0
  | Some (_, r), None | None, Some r -> r
  | None, None -> nan

(* The reference's time on the reference host at its usual (fast)
   level, so that a normalised timing reads as wall seconds there. *)
let nominal = 0.040

let normalise ~reference t = t *. nominal /. reference
