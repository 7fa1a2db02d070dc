let max_vertices = 16

let check_size g name =
  let n = Graph.Csr.n_vertices g in
  if n = 0 then invalid_arg (name ^ ": empty graph");
  if n > max_vertices then
    invalid_arg (Printf.sprintf "%s: at most %d vertices (got %d)" name max_vertices n);
  n

let check_vertex g name v =
  if v < 0 || v >= Graph.Csr.n_vertices g then invalid_arg (name ^ ": vertex out of range")

(* Distribution over the subsets a single vertex's picks can form. With
   replacement: start from the empty set and fold in one uniform
   neighbour k times, mixing over the branching's pick-count
   distribution. Without replacement ([Distinct k]): uniform over the
   C(deg, min k deg) neighbour subsets of that size. Returned as an
   association list (mask, probability). *)
let pick_set_dist g branching v =
  let d = Graph.Csr.degree g v in
  if d = 0 then invalid_arg "Exact: isolated vertex";
  match branching with
  | Branching.Distinct k ->
    let k = min k d in
    let neighbours = Graph.Csr.neighbours g v in
    (* Enumerate all k-subsets of the neighbour list. *)
    let subsets = ref [] in
    let rec go idx chosen mask =
      if chosen = k then subsets := mask :: !subsets
      else if d - idx >= k - chosen then begin
        go (idx + 1) (chosen + 1) (mask lor (1 lsl neighbours.(idx)));
        go (idx + 1) chosen mask
      end
    in
    go 0 0 0;
    let total = Float.of_int (List.length !subsets) in
    List.map (fun mask -> (mask, 1.0 /. total)) !subsets
  | Branching.Fixed _ | Branching.One_plus _ ->
    let unit = 1.0 /. Float.of_int d in
    let one_round dist =
      let acc = Hashtbl.create 16 in
      Hashtbl.iter
        (fun mask p ->
          Graph.Csr.iter_neighbours g v ~f:(fun w ->
              let mask' = mask lor (1 lsl w) in
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc mask') in
              Hashtbl.replace acc mask' (prev +. (p *. unit))))
        dist;
      acc
    in
    let dist_for_picks k =
      let dist = Hashtbl.create 1 in
      Hashtbl.replace dist 0 1.0;
      let cur = ref dist in
      for _ = 1 to k do
        cur := one_round !cur
      done;
      !cur
    in
    let mixed = Hashtbl.create 16 in
    List.iter
      (fun (k, pk) ->
        Hashtbl.iter
          (fun mask p ->
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt mixed mask) in
            Hashtbl.replace mixed mask (prev +. (pk *. p)))
          (dist_for_picks k))
      (Branching.pick_count_distribution branching);
    Hashtbl.fold (fun mask p acc -> (mask, p) :: acc) mixed []

(* Next-state distribution of the COBRA chain from active set [mask]:
   union-convolution of the members' pick-set distributions. *)
let cobra_next_dist g per_vertex mask =
  let dist = ref [ (0, 1.0) ] in
  let n = Graph.Csr.n_vertices g in
  for v = 0 to n - 1 do
    if mask land (1 lsl v) <> 0 then begin
      let acc = Hashtbl.create 64 in
      List.iter
        (fun (m1, p1) ->
          List.iter
            (fun (m2, p2) ->
              let m = m1 lor m2 in
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc m) in
              Hashtbl.replace acc m (prev +. (p1 *. p2)))
            per_vertex.(v))
        !dist;
      dist := Hashtbl.fold (fun m p l -> (m, p) :: l) acc []
    end
  done;
  !dist

let mask_of_list name n vs =
  List.fold_left
    (fun acc v ->
      if v < 0 || v >= n then invalid_arg (name ^ ": vertex out of range");
      acc lor (1 lsl v))
    0 vs

let mask_of_vertices ~n vs =
  if n < 1 || n > max_vertices then invalid_arg "Exact.mask_of_vertices: bad n";
  mask_of_list "Exact.mask_of_vertices" n vs

let vertices_of_mask mask =
  if mask < 0 then invalid_arg "Exact.vertices_of_mask: negative mask";
  let rec go v acc =
    if 1 lsl v > mask then List.rev acc
    else go (v + 1) (if mask land (1 lsl v) <> 0 then v :: acc else acc)
  in
  go 0 []

(* Sorted-by-mask association list of the non-zero entries — the
   deterministic export format of every *_step_dist below. *)
let sorted_dist entries =
  List.sort (fun (a, _) (b, _) -> compare a b)
    (List.filter (fun (_, p) -> p > 0.0) entries)

module Cobra_engine = struct
  (* Memoised transitions as parallel arrays (masks, probs) for cache- and
     allocation-friendly evolution; distributions over active sets are
     dense float arrays of length 2^n. *)
  type transition = { masks : int array; probs : float array }

  type t = {
    g : Graph.Csr.t;
    n : int;
    per_vertex : (int * float) list array;
    next_memo : transition option array; (* indexed by active-set mask *)
  }

  let create g ~branching =
    let n = check_size g "Exact.Cobra_engine.create" in
    {
      g;
      n;
      per_vertex = Array.init n (fun v -> pick_set_dist g branching v);
      next_memo = Array.make (1 lsl n) None;
    }

  let next_of e mask =
    match e.next_memo.(mask) with
    | Some tr -> tr
    | None ->
      let entries = cobra_next_dist e.g e.per_vertex mask in
      let tr =
        {
          masks = Array.of_list (List.map fst entries);
          probs = Array.of_list (List.map snd entries);
        }
      in
      e.next_memo.(mask) <- Some tr;
      tr

  let hit_survival e ~start ~target ~t_max =
    check_vertex e.g "Exact.hit_survival" target;
    if start = [] then invalid_arg "Exact.hit_survival: empty start";
    if t_max < 0 then invalid_arg "Exact.hit_survival: t_max >= 0";
    let start_mask = mask_of_list "Exact.hit_survival" e.n start in
    let target_bit = 1 lsl target in
    let survival = Array.make (t_max + 1) 0.0 in
    if start_mask land target_bit <> 0 then survival (* all zeros: hit at t = 0 *)
    else begin
      (* alive: distribution over active sets that have never contained
         the target; mass entering a target-containing set is dropped. *)
      let size = 1 lsl e.n in
      let alive = ref (Array.make size 0.0) in
      let next = ref (Array.make size 0.0) in
      !alive.(start_mask) <- 1.0;
      survival.(0) <- 1.0;
      for t = 1 to t_max do
        Array.fill !next 0 size 0.0;
        let total = ref 0.0 in
        for mask = 0 to size - 1 do
          let p = !alive.(mask) in
          if p > 0.0 then begin
            let tr = next_of e mask in
            for i = 0 to Array.length tr.masks - 1 do
              let mask' = tr.masks.(i) in
              if mask' land target_bit = 0 then begin
                let q = p *. tr.probs.(i) in
                !next.(mask') <- !next.(mask') +. q;
                total := !total +. q
              end
            done
          end
        done;
        let tmp = !alive in
        alive := !next;
        next := tmp;
        survival.(t) <- !total
      done;
      survival
    end
end

let cobra_hit_survival g ~branching ~start ~target ~t_max =
  let e = Cobra_engine.create g ~branching in
  Cobra_engine.hit_survival e ~start ~target ~t_max

(* Cover time needs the joint (frontier, visited) chain: the next frontier
   depends only on the current one, and visited accumulates. States are
   keyed as [frontier lor (visited lsl n)]; mass whose visited set becomes
   full is absorbed. *)
let cover_survival g ~branching ~start ~t_max =
  let n = check_size g "Exact.cover_survival" in
  if start = [] then invalid_arg "Exact.cover_survival: empty start";
  if t_max < 0 then invalid_arg "Exact.cover_survival: t_max >= 0";
  let start_mask = mask_of_list "Exact.cover_survival" n start in
  let full = (1 lsl n) - 1 in
  let engine = Cobra_engine.create g ~branching in
  let survival = Array.make (t_max + 1) 0.0 in
  if start_mask = full then survival
  else begin
    let alive = ref (Hashtbl.create 16) in
    Hashtbl.replace !alive (start_mask lor (start_mask lsl n)) 1.0;
    survival.(0) <- 1.0;
    for t = 1 to t_max do
      let next = Hashtbl.create 64 in
      let total = ref 0.0 in
      Hashtbl.iter
        (fun key p ->
          let frontier = key land full in
          let visited = key lsr n in
          let tr = Cobra_engine.next_of engine frontier in
          for i = 0 to Array.length tr.Cobra_engine.masks - 1 do
            let frontier' = tr.Cobra_engine.masks.(i) in
            let visited' = visited lor frontier' in
            if visited' <> full then begin
              let q = p *. tr.Cobra_engine.probs.(i) in
              let key' = frontier' lor (visited' lsl n) in
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt next key') in
              Hashtbl.replace next key' (prev +. q);
              total := !total +. q
            end
          done)
        !alive;
      alive := next;
      survival.(t) <- !total
    done;
    survival
  end

let expected_cover_time g ~branching ~start =
  let n = check_size g "Exact.expected_cover_time" in
  if start = [] then invalid_arg "Exact.expected_cover_time: empty start";
  let start_mask = mask_of_list "Exact.expected_cover_time" n start in
  let full = (1 lsl n) - 1 in
  if start_mask = full then 0.0
  else begin
    let engine = Cobra_engine.create g ~branching in
    let alive = ref (Hashtbl.create 16) in
    Hashtbl.replace !alive (start_mask lor (start_mask lsl n)) 1.0;
    (* E[cov] = Σ_{t >= 0} P(cov > t); iterate until the tail is dust. *)
    let acc = ref 1.0 (* t = 0 term: start <> full *) in
    let mass = ref 1.0 in
    let steps = ref 0 in
    while !mass > 1e-12 && !steps < 1_000_000 do
      let next = Hashtbl.create 64 in
      let total = ref 0.0 in
      Hashtbl.iter
        (fun key p ->
          let frontier = key land full in
          let visited = key lsr n in
          let tr = Cobra_engine.next_of engine frontier in
          for i = 0 to Array.length tr.Cobra_engine.masks - 1 do
            let frontier' = tr.Cobra_engine.masks.(i) in
            let visited' = visited lor frontier' in
            if visited' <> full then begin
              let q = p *. tr.Cobra_engine.probs.(i) in
              let key' = frontier' lor (visited' lsl n) in
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt next key') in
              Hashtbl.replace next key' (prev +. q)
            end
          done)
        !alive;
      Hashtbl.iter (fun _ p -> total := !total +. p) next;
      alive := next;
      mass := !total;
      acc := !acc +. !total;
      incr steps
    done;
    if !mass > 1e-12 then failwith "Exact.expected_cover_time: did not converge";
    !acc
  end

(* One BIPS step on a dense distribution over subsets. For each source
   state A we enumerate target states by expanding the per-vertex
   independent infection probabilities, branching over the two outcomes of
   each non-source vertex. Probability-zero branches are pruned, which
   keeps the recursion near the reachable support. *)
let bips_step g branching ~source dist =
  let n = Graph.Csr.n_vertices g in
  let size = 1 lsl n in
  let next = Array.make size 0.0 in
  let p_infected = Array.make n 0.0 in
  for a = 0 to size - 1 do
    let pa = dist.(a) in
    if pa > 0.0 then begin
      (* Per-vertex infection probabilities given A = a. *)
      for u = 0 to n - 1 do
        if u = source then p_infected.(u) <- 1.0
        else begin
          let deg = Graph.Csr.degree g u in
          let hits =
            Graph.Csr.fold_neighbours g u ~init:0 ~f:(fun acc w ->
                if a land (1 lsl w) <> 0 then acc + 1 else acc)
          in
          p_infected.(u) <-
            Branching.infection_probability_counts branching ~degree:deg
              ~infected:hits
        end
      done;
      let rec expand u mask p =
        if p = 0.0 then ()
        else if u = n then next.(mask) <- next.(mask) +. p
        else begin
          expand (u + 1) (mask lor (1 lsl u)) (p *. p_infected.(u));
          expand (u + 1) mask (p *. (1.0 -. p_infected.(u)))
        end
      in
      expand 0 0 pa
    end
  done;
  next

let bips_series g ~branching ~source ~t_max ~measure name =
  let n = check_size g name in
  check_vertex g name source;
  if t_max < 0 then invalid_arg (name ^ ": t_max >= 0");
  let size = 1 lsl n in
  let dist = Array.make size 0.0 in
  dist.(1 lsl source) <- 1.0;
  let out = Array.make (t_max + 1) 0.0 in
  out.(0) <- measure dist;
  let cur = ref dist in
  for t = 1 to t_max do
    cur := bips_step g branching ~source !cur;
    out.(t) <- measure !cur
  done;
  out

let bips_avoid g ~branching ~source ~avoid ~t_max =
  let n = Graph.Csr.n_vertices g in
  let avoid_mask = mask_of_list "Exact.bips_avoid" n avoid in
  let measure dist =
    let acc = ref 0.0 in
    Array.iteri (fun a p -> if a land avoid_mask = 0 then acc := !acc +. p) dist;
    !acc
  in
  bips_series g ~branching ~source ~t_max ~measure "Exact.bips_avoid"

let bips_unsaturated g ~branching ~source ~t_max =
  let n = Graph.Csr.n_vertices g in
  let full = (1 lsl n) - 1 in
  let measure dist = 1.0 -. dist.(full) in
  bips_series g ~branching ~source ~t_max ~measure "Exact.bips_unsaturated"

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

let bips_expected_size g ~branching ~source ~t_max =
  let measure dist =
    let acc = ref 0.0 in
    Array.iteri (fun a p -> acc := !acc +. (p *. Float.of_int (popcount a))) dist;
    !acc
  in
  bips_series g ~branching ~source ~t_max ~measure "Exact.bips_expected_size"

let duality_gap g ~branching ~t_max =
  let n = check_size g "Exact.duality_gap" in
  let engine = Cobra_engine.create g ~branching in
  let worst = ref 0.0 in
  for v = 0 to n - 1 do
    (* One BIPS evolution per source v serves every u. *)
    let size = 1 lsl n in
    let dist = Array.make size 0.0 in
    dist.(1 lsl v) <- 1.0;
    let absent = Array.make_matrix (t_max + 1) n 0.0 in
    let record t d =
      for u = 0 to n - 1 do
        let acc = ref 0.0 in
        Array.iteri (fun a p -> if a land (1 lsl u) = 0 then acc := !acc +. p) d;
        absent.(t).(u) <- !acc
      done
    in
    record 0 dist;
    let cur = ref dist in
    for t = 1 to t_max do
      cur := bips_step g branching ~source:v !cur;
      record t !cur
    done;
    for u = 0 to n - 1 do
      let survival = Cobra_engine.hit_survival engine ~start:[ u ] ~target:v ~t_max in
      for t = 0 to t_max do
        let gap = Float.abs (survival.(t) -. absent.(t).(u)) in
        if gap > !worst then worst := gap
      done
    done
  done;
  !worst

(* ---------- distribution-level oracle exports (conformance suite) ---------- *)

let cobra_step_dist g ~branching ~active =
  let n = check_size g "Exact.cobra_step_dist" in
  if active = [] then invalid_arg "Exact.cobra_step_dist: empty active set";
  let mask = mask_of_list "Exact.cobra_step_dist" n active in
  (* Pick distributions only for members: non-members may be isolated. *)
  let per_vertex =
    Array.init n (fun v ->
        if mask land (1 lsl v) <> 0 then pick_set_dist g branching v else [])
  in
  sorted_dist (cobra_next_dist g per_vertex mask)

let cobra_occupancy g ~branching ~start ~t_max =
  let n = check_size g "Exact.cobra_occupancy" in
  if start = [] then invalid_arg "Exact.cobra_occupancy: empty start";
  if t_max < 0 then invalid_arg "Exact.cobra_occupancy: t_max >= 0";
  let start_mask = mask_of_list "Exact.cobra_occupancy" n start in
  let engine = Cobra_engine.create g ~branching in
  let size = 1 lsl n in
  let dist = Array.make size 0.0 in
  dist.(start_mask) <- 1.0;
  let occ = Array.make_matrix (t_max + 1) n 0.0 in
  let record t d =
    for mask = 0 to size - 1 do
      let p = d.(mask) in
      if p > 0.0 then
        for v = 0 to n - 1 do
          if mask land (1 lsl v) <> 0 then occ.(t).(v) <- occ.(t).(v) +. p
        done
    done
  in
  record 0 dist;
  let cur = ref dist and next = ref (Array.make size 0.0) in
  for t = 1 to t_max do
    Array.fill !next 0 size 0.0;
    for mask = 0 to size - 1 do
      let p = !cur.(mask) in
      if p > 0.0 then begin
        let tr = Cobra_engine.next_of engine mask in
        for i = 0 to Array.length tr.Cobra_engine.masks - 1 do
          let m' = tr.Cobra_engine.masks.(i) in
          !next.(m') <- !next.(m') +. (p *. tr.Cobra_engine.probs.(i))
        done
      end
    done;
    let tmp = !cur in
    cur := !next;
    next := tmp;
    record t !cur
  done;
  occ

let bips_step_dist g ~branching ~source ~infected =
  let n = check_size g "Exact.bips_step_dist" in
  check_vertex g "Exact.bips_step_dist" source;
  if infected = [] then invalid_arg "Exact.bips_step_dist: empty infected set";
  let mask = mask_of_list "Exact.bips_step_dist" n infected in
  let dist = Array.make (1 lsl n) 0.0 in
  dist.(mask) <- 1.0;
  let next = bips_step g branching ~source dist in
  sorted_dist (Array.to_list (Array.mapi (fun m p -> (m, p)) next))

let bips_occupancy g ~branching ~source ~t_max =
  let n = check_size g "Exact.bips_occupancy" in
  check_vertex g "Exact.bips_occupancy" source;
  if t_max < 0 then invalid_arg "Exact.bips_occupancy: t_max >= 0";
  let size = 1 lsl n in
  let dist = Array.make size 0.0 in
  dist.(1 lsl source) <- 1.0;
  let occ = Array.make_matrix (t_max + 1) n 0.0 in
  let record t d =
    for mask = 0 to size - 1 do
      let p = d.(mask) in
      if p > 0.0 then
        for v = 0 to n - 1 do
          if mask land (1 lsl v) <> 0 then occ.(t).(v) <- occ.(t).(v) +. p
        done
    done
  in
  record 0 dist;
  let cur = ref dist in
  for t = 1 to t_max do
    cur := bips_step g branching ~source !cur;
    record t !cur
  done;
  occ

(* The push protocol is monotone COBRA with a single pick: informed
   vertices stay informed and each sends to one uniform neighbour. *)
let push_cover_survival g ~start ~t_max =
  let n = check_size g "Exact.push_cover_survival" in
  if t_max < 0 then invalid_arg "Exact.push_cover_survival: t_max >= 0";
  check_vertex g "Exact.push_cover_survival" start;
  let start_mask = 1 lsl start in
  let full = (1 lsl n) - 1 in
  let survival = Array.make (t_max + 1) 0.0 in
  if start_mask = full then survival
  else begin
    let per_vertex = Array.init n (fun v -> pick_set_dist g (Branching.Fixed 1) v) in
    let alive = ref (Hashtbl.create 16) in
    Hashtbl.replace !alive start_mask 1.0;
    survival.(0) <- 1.0;
    for t = 1 to t_max do
      let next = Hashtbl.create 64 in
      let total = ref 0.0 in
      Hashtbl.iter
        (fun mask p ->
          List.iter
            (fun (picks, q) ->
              let mask' = mask lor picks in
              if mask' <> full then begin
                let pq = p *. q in
                let prev = Option.value ~default:0.0 (Hashtbl.find_opt next mask') in
                Hashtbl.replace next mask' (prev +. pq);
                total := !total +. pq
              end)
            (cobra_next_dist g per_vertex mask))
        !alive;
      alive := next;
      survival.(t) <- !total
    done;
    survival
  end

(* Expand a product measure over vertex inclusion: branch on each
   vertex's in/out probability, pruning probability-zero branches. *)
let expand_product n p_next ~weight ~add =
  let rec go u mask p =
    if p = 0.0 then ()
    else if u = n then add mask p
    else begin
      go (u + 1) (mask lor (1 lsl u)) (p *. p_next.(u));
      go (u + 1) mask (p *. (1.0 -. p_next.(u)))
    end
  in
  go 0 0 weight

(* ---------- coalescing walks: the COBRA chain at Fixed 1 ---------- *)

(* Each cluster makes a single pick and the next occupied set is the
   union of the picks — exactly COBRA with branching [Fixed 1], so the
   memoised COBRA engine is the oracle. *)
let coalescing_step_dist g ~active =
  cobra_step_dist g ~branching:(Branching.Fixed 1) ~active

let coalescing_evolve g ~start ~t_max ~record name =
  let n = check_size g name in
  if start = [] then invalid_arg (name ^ ": empty start");
  if t_max < 0 then invalid_arg (name ^ ": t_max >= 0");
  let mask = mask_of_list name n start in
  let engine = Cobra_engine.create g ~branching:(Branching.Fixed 1) in
  let size = 1 lsl n in
  let dist = Array.make size 0.0 in
  dist.(mask) <- 1.0;
  record 0 dist;
  let cur = ref dist and next = ref (Array.make size 0.0) in
  for t = 1 to t_max do
    Array.fill !next 0 size 0.0;
    for m = 0 to size - 1 do
      let p = !cur.(m) in
      if p > 0.0 then begin
        let tr = Cobra_engine.next_of engine m in
        for i = 0 to Array.length tr.Cobra_engine.masks - 1 do
          let m' = tr.Cobra_engine.masks.(i) in
          !next.(m') <- !next.(m') +. (p *. tr.Cobra_engine.probs.(i))
        done
      end
    done;
    let tmp = !cur in
    cur := !next;
    next := tmp;
    record t !cur
  done

let coalescing_cluster_dist g ~start ~t_max =
  let out = ref [||] in
  coalescing_evolve g ~start ~t_max "Exact.coalescing_cluster_dist"
    ~record:(fun t dist ->
      if t = t_max then begin
        let counts = Array.make (List.length start + 1) 0.0 in
        Array.iteri
          (fun m p -> if p > 0.0 then counts.(popcount m) <- counts.(popcount m) +. p)
          dist;
        out := counts
      end);
  sorted_dist (Array.to_list (Array.mapi (fun c p -> (c, p)) !out))

let coalescing_consensus_survival g ~start ~t_max =
  let survival = Array.make (t_max + 1) 0.0 in
  coalescing_evolve g ~start ~t_max "Exact.coalescing_consensus_survival"
    ~record:(fun t dist ->
      let acc = ref 0.0 in
      Array.iteri (fun m p -> if popcount m > 1 then acc := !acc +. p) dist;
      survival.(t) <- !acc);
  survival

(* ---------- unvisited-edge-preferring walk (DP over edge subsets) ---------- *)

(* Undirected edges get ids in the order their lower endpoint's adjacency
   is scanned; [incident.(u)] pairs each neighbour with its edge bit. The
   walk's unvisited-slot draw is uniform over the unvisited incident
   edges in ascending adjacency order, which is exactly this edge set. *)
let explore_max_edges = 16

let explore_incidence g name =
  let n = check_size g name in
  let ids = Hashtbl.create 32 in
  let count = ref 0 in
  for u = 0 to n - 1 do
    Graph.Csr.iter_neighbours g u ~f:(fun w ->
        if u < w then begin
          Hashtbl.replace ids (u, w) !count;
          incr count
        end)
  done;
  if !count > explore_max_edges then
    invalid_arg
      (Printf.sprintf "%s: at most %d edges (got %d)" name explore_max_edges !count);
  let incident =
    Array.init n (fun u ->
        let acc = ref [] in
        Graph.Csr.iter_neighbours g u ~f:(fun w ->
            let key = if u < w then (u, w) else (w, u) in
            acc := (w, 1 lsl Hashtbl.find ids key) :: !acc);
        Array.of_list (List.rev !acc))
  in
  (n, incident)

(* Iterate the successor distribution of state (position u, visited-edge
   mask): uniform over unvisited incident edges if any (setting the edge
   bit), else uniform over all neighbours (mask unchanged). *)
let explore_next incident u mask ~f =
  let inc = incident.(u) in
  let d = Array.length inc in
  if d = 0 then invalid_arg "Exact: isolated vertex";
  let k = ref 0 in
  Array.iter (fun (_, bit) -> if mask land bit = 0 then incr k) inc;
  if !k > 0 then begin
    let q = 1.0 /. Float.of_int !k in
    Array.iter
      (fun (w, bit) -> if mask land bit = 0 then f w (mask lor bit) q)
      inc
  end
  else begin
    let q = 1.0 /. Float.of_int d in
    Array.iter (fun (w, _) -> f w mask q) inc
  end

let explore_evolve g ~start ~t_max ~record name =
  let n, incident = explore_incidence g name in
  check_vertex g name start;
  if t_max < 0 then invalid_arg (name ^ ": t_max >= 0");
  let cur = ref (Hashtbl.create 16) in
  Hashtbl.replace !cur (start, 0) 1.0;
  record 0 !cur;
  for t = 1 to t_max do
    let next = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (u, mask) p ->
        explore_next incident u mask ~f:(fun w mask' q ->
            let key = (w, mask') in
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt next key) in
            Hashtbl.replace next key (prev +. (p *. q))))
      !cur;
    cur := next;
    record t !cur
  done;
  n

let explore_position_dist g ~start ~t =
  let out = ref [] in
  let (_ : int) =
    explore_evolve g ~start ~t_max:t "Exact.explore_position_dist"
      ~record:(fun t' dist ->
        if t' = t then begin
          let pos = Hashtbl.create 16 in
          Hashtbl.iter
            (fun (u, _) p ->
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt pos u) in
              Hashtbl.replace pos u (prev +. p))
            dist;
          out := Hashtbl.fold (fun u p acc -> (u, p) :: acc) pos []
        end)
  in
  sorted_dist !out

(* A vertex has been visited iff it is the start or an endpoint of a
   traversed edge (when every incident edge is visited the walker moves
   along an already-traversed edge), so cover is readable off the edge
   mask alone. *)
let explore_cover_survival g ~start ~t_max =
  let n = Graph.Csr.n_vertices g in
  let full = (1 lsl n) - 1 in
  (* Endpoint masks in edge-id order (the order [explore_incidence]
     assigns: lower endpoint ascending, adjacency ascending). *)
  let endpoint_masks =
    let acc = ref [] in
    for u = 0 to n - 1 do
      Graph.Csr.iter_neighbours g u ~f:(fun w ->
          if u < w then acc := ((1 lsl u) lor (1 lsl w)) :: !acc)
    done;
    Array.of_list (List.rev !acc)
  in
  let visited_cache = Hashtbl.create 64 in
  let visited_of mask =
    match Hashtbl.find_opt visited_cache mask with
    | Some v -> v
    | None ->
      let v = ref (1 lsl start) in
      Array.iteri
        (fun e em -> if mask land (1 lsl e) <> 0 then v := !v lor em)
        endpoint_masks;
      Hashtbl.replace visited_cache mask !v;
      !v
  in
  let survival = Array.make (t_max + 1) 0.0 in
  let (_ : int) =
    explore_evolve g ~start ~t_max "Exact.explore_cover_survival"
      ~record:(fun t dist ->
        let acc = ref 0.0 in
        Hashtbl.iter
          (fun (_, mask) p -> if visited_of mask <> full then acc := !acc +. p)
          dist;
        survival.(t) <- !acc)
  in
  survival

(* ---------- pull and push-pull rumour spreading ---------- *)

(* One pull round is a product measure: members stay informed and each
   uninformed vertex joins independently with probability
   d_I(u) / deg(u) (its call hits an informed neighbour). *)
let pull_next_probabilities g mask =
  let n = Graph.Csr.n_vertices g in
  Array.init n (fun u ->
      if mask land (1 lsl u) <> 0 then 1.0
      else begin
        let deg = Graph.Csr.degree g u in
        if deg = 0 then invalid_arg "Exact: isolated vertex";
        let hits =
          Graph.Csr.fold_neighbours g u ~init:0 ~f:(fun acc w ->
              if mask land (1 lsl w) <> 0 then acc + 1 else acc)
        in
        Float.of_int hits /. Float.of_int deg
      end)

let pull_step_dist g ~infected =
  let n = check_size g "Exact.pull_step_dist" in
  if infected = [] then invalid_arg "Exact.pull_step_dist: empty infected set";
  let mask = mask_of_list "Exact.pull_step_dist" n infected in
  let p_next = pull_next_probabilities g mask in
  let out = Array.make (1 lsl n) 0.0 in
  expand_product n p_next ~weight:1.0 ~add:(fun m p -> out.(m) <- out.(m) +. p);
  sorted_dist (Array.to_list (Array.mapi (fun m p -> (m, p)) out))

(* One push-pull round by brute force over joint contact vectors: every
   vertex picks one uniform neighbour; information crosses each contact
   both ways against the previous informed set, matching the
   synchronous apply of [Push.step] under [Push_pull]. *)
let push_pull_next g mask ~add =
  let n = Graph.Csr.n_vertices g in
  let rec go u acc p =
    if p = 0.0 then ()
    else if u = n then add acc p
    else begin
      let deg = Graph.Csr.degree g u in
      if deg = 0 then invalid_arg "Exact: isolated vertex";
      let q = p /. Float.of_int deg in
      let iu = mask land (1 lsl u) <> 0 in
      Graph.Csr.iter_neighbours g u ~f:(fun w ->
          let iw = mask land (1 lsl w) <> 0 in
          let acc' =
            if iu && not iw then acc lor (1 lsl w)
            else if iw && not iu then acc lor (1 lsl u)
            else acc
          in
          go (u + 1) acc' q)
    end
  in
  go 0 mask 1.0

let push_pull_step_dist g ~infected =
  let n = check_size g "Exact.push_pull_step_dist" in
  if infected = [] then invalid_arg "Exact.push_pull_step_dist: empty infected set";
  let mask = mask_of_list "Exact.push_pull_step_dist" n infected in
  let out = Array.make (1 lsl n) 0.0 in
  push_pull_next g mask ~add:(fun m p -> out.(m) <- out.(m) +. p);
  sorted_dist (Array.to_list (Array.mapi (fun m p -> (m, p)) out))

(* Monotone informed-set chains for the rumour protocols: evolve a sparse
   distribution over informed sets, dropping mass the moment it reaches
   the full set. [step_of mask] returns the one-round successor
   distribution of [mask] (memoised: the chains revisit masks often). *)
let informed_survival name g ~start ~t_max ~step_of =
  let n = check_size g name in
  check_vertex g name start;
  if t_max < 0 then invalid_arg (name ^ ": t_max >= 0");
  let start_mask = 1 lsl start in
  let full = (1 lsl n) - 1 in
  let survival = Array.make (t_max + 1) 0.0 in
  if start_mask = full then survival
  else begin
    let memo = Hashtbl.create 64 in
    let step mask =
      match Hashtbl.find_opt memo mask with
      | Some d -> d
      | None ->
        let d = step_of mask in
        Hashtbl.replace memo mask d;
        d
    in
    let alive = ref (Hashtbl.create 16) in
    Hashtbl.replace !alive start_mask 1.0;
    survival.(0) <- 1.0;
    for t = 1 to t_max do
      let next = Hashtbl.create 64 in
      let total = ref 0.0 in
      Hashtbl.iter
        (fun mask p ->
          List.iter
            (fun (mask', q) ->
              if mask' <> full then begin
                let pq = p *. q in
                let prev = Option.value ~default:0.0 (Hashtbl.find_opt next mask') in
                Hashtbl.replace next mask' (prev +. pq);
                total := !total +. pq
              end)
            (step mask))
        !alive;
      alive := next;
      survival.(t) <- !total
    done;
    survival
  end

let pull_cover_survival g ~start ~t_max =
  let n = Graph.Csr.n_vertices g in
  informed_survival "Exact.pull_cover_survival" g ~start ~t_max ~step_of:(fun mask ->
      let p_next = pull_next_probabilities g mask in
      let acc = ref [] in
      expand_product n p_next ~weight:1.0 ~add:(fun m p -> acc := (m, p) :: !acc);
      !acc)

let push_pull_cover_survival g ~start ~t_max =
  informed_survival "Exact.push_pull_cover_survival" g ~start ~t_max
    ~step_of:(fun mask ->
      let acc = Hashtbl.create 32 in
      push_pull_next g mask ~add:(fun m p ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc m) in
          Hashtbl.replace acc m (prev +. p));
      Hashtbl.fold (fun m p l -> (m, p) :: l) acc [])

(* One SIS round as a product measure: given the previous infected set
   [A], vertex [u] is infected next round with probability 1 if
   persistent, and otherwise with

     stays + (1 - stays) * p_hit,   stays = [u ∈ A](1 - recovery)

   where p_hit is the chance that [u]'s contact picks hit [A] — matching
   [Epidemic.Sis.step]'s order (recovery first, then exposure of every
   currently-susceptible vertex against the previous infected set). *)
let sis_next_probabilities g ~contacts ~recovery ~persistent mask =
  let n = Graph.Csr.n_vertices g in
  Array.init n (fun u ->
      if persistent = Some u then 1.0
      else begin
        let deg = Graph.Csr.degree g u in
        let hits =
          Graph.Csr.fold_neighbours g u ~init:0 ~f:(fun acc w ->
              if mask land (1 lsl w) <> 0 then acc + 1 else acc)
        in
        let p_hit = Branching.infection_probability_counts contacts ~degree:deg ~infected:hits in
        let stays = if mask land (1 lsl u) <> 0 then 1.0 -. recovery else 0.0 in
        stays +. ((1.0 -. stays) *. p_hit)
      end)

let sis_validate name g ~recovery ~persistent =
  let n = check_size g name in
  if recovery < 0.0 || recovery > 1.0 then invalid_arg (name ^ ": recovery outside [0, 1]");
  Option.iter (fun v -> check_vertex g name v) persistent;
  n

let sis_step_dist g ~contacts ~recovery ~persistent ~infected =
  let n = sis_validate "Exact.sis_step_dist" g ~recovery ~persistent in
  if infected = [] && persistent = None then
    invalid_arg "Exact.sis_step_dist: nobody infected";
  let mask =
    mask_of_list "Exact.sis_step_dist" n infected
    lor (match persistent with Some v -> 1 lsl v | None -> 0)
  in
  let p_next = sis_next_probabilities g ~contacts ~recovery ~persistent mask in
  let out = Array.make (1 lsl n) 0.0 in
  expand_product n p_next ~weight:1.0 ~add:(fun m p -> out.(m) <- out.(m) +. p);
  sorted_dist (Array.to_list (Array.mapi (fun m p -> (m, p)) out))

let sis_extinct_series g ~contacts ~recovery ~start ~t_max =
  let n = sis_validate "Exact.sis_extinct_series" g ~recovery ~persistent:None in
  if start = [] then invalid_arg "Exact.sis_extinct_series: empty start";
  if t_max < 0 then invalid_arg "Exact.sis_extinct_series: t_max >= 0";
  let start_mask = mask_of_list "Exact.sis_extinct_series" n start in
  let size = 1 lsl n in
  let dist = Array.make size 0.0 in
  dist.(start_mask) <- 1.0;
  let out = Array.make (t_max + 1) 0.0 in
  out.(0) <- dist.(0);
  let cur = ref dist and next = ref (Array.make size 0.0) in
  for t = 1 to t_max do
    Array.fill !next 0 size 0.0;
    (* The empty set is absorbing: every p_next is 0 there, so mass at 0
       flows straight back to 0 through the same product expansion. *)
    for mask = 0 to size - 1 do
      let p = !cur.(mask) in
      if p > 0.0 then begin
        let p_next = sis_next_probabilities g ~contacts ~recovery ~persistent:None mask in
        let nx = !next in
        expand_product n p_next ~weight:p ~add:(fun m q -> nx.(m) <- nx.(m) +. q)
      end
    done;
    let tmp = !cur in
    cur := !next;
    next := tmp;
    out.(t) <- !cur.(0)
  done;
  out

(* --- The SEIR oracle. ---------------------------------------------------

   One SEIR round factors exactly like the SIS round: timer transitions
   (E->I, I->R) are deterministic, and the only randomness is each still-
   susceptible vertex's contact draw against the infectious set
   snapshotted at the start of the round — so the newly-exposed set is a
   product measure over the susceptibles, mirroring
   [Epidemic.Seir.step]'s order (timers first, then exposure of every
   susceptible against the snapshot). *)

let seir_exposure_probabilities g ~contacts ~inf_mask ~sus_mask =
  let n = Graph.Csr.n_vertices g in
  Array.init n (fun u ->
      if sus_mask land (1 lsl u) = 0 then 0.0
      else begin
        let deg = Graph.Csr.degree g u in
        let hits =
          Graph.Csr.fold_neighbours g u ~init:0 ~f:(fun acc w ->
              if inf_mask land (1 lsl w) <> 0 then acc + 1 else acc)
        in
        Branching.infection_probability_counts contacts ~degree:deg ~infected:hits
      end)

let seir_validate name ~latent_rounds ~infectious_rounds =
  if latent_rounds < 0 then invalid_arg (name ^ ": latent_rounds >= 0");
  if infectious_rounds < 1 then invalid_arg (name ^ ": infectious_rounds >= 1")

let seir_step_dist g ~contacts ~infectious ~susceptible =
  let name = "Exact.seir_step_dist" in
  let n = check_size g name in
  let inf_mask = mask_of_list name n infectious in
  let sus_mask = mask_of_list name n susceptible in
  if inf_mask = 0 then invalid_arg (name ^ ": nobody infectious");
  if inf_mask land sus_mask <> 0 then
    invalid_arg (name ^ ": infectious and susceptible overlap");
  let p_next = seir_exposure_probabilities g ~contacts ~inf_mask ~sus_mask in
  let out = Array.make (1 lsl n) 0.0 in
  expand_product n p_next ~weight:1.0 ~add:(fun m p -> out.(m) <- out.(m) +. p);
  sorted_dist (Array.to_list (Array.mapi (fun m p -> (m, p)) out))

(* Dense evolution is hopeless for SEIR (the per-vertex state is not a
   bit), so the chain runs over a sparse table of mixed-radix states:
   vertex [v] contributes [code * base^v] with

     code 0                      = Susceptible
     code t, 1 <= t <= L         = Exposed, t latent rounds remaining
     code L + t, 1 <= t <= J     = Infectious, t rounds remaining
     code L + J + 1              = Recovered

   (L = latent_rounds, J = infectious_rounds). Timers are monotone and
   each vertex is infected at most once, so the chain absorbs — no
   Exposed or Infectious vertex left — within n(L + J) rounds
   deterministically; [seir_evolve] steps the table, moving absorbed
   mass into the per-attack-count accumulator, and is shared by the
   attack-rate and extinction exports. *)
let seir_evolve g ~contacts ~latent_rounds ~infectious_rounds ~start ~on_round =
  let name = "Exact.seir" in
  let n = check_size g name in
  seir_validate name ~latent_rounds ~infectious_rounds;
  if start = [] then invalid_arg (name ^ ": empty start");
  let start_mask = mask_of_list name n start in
  let base = latent_rounds + infectious_rounds + 2 in
  if float_of_int n *. log (float_of_int base) > 42.0 then
    invalid_arg (name ^ ": state space exceeds 62 bits (shrink the timers)");
  let pow = Array.make n 1 in
  for v = 1 to n - 1 do
    pow.(v) <- pow.(v - 1) * base
  done;
  let code state v = state / pow.(v) mod base in
  let r_code = latent_rounds + infectious_rounds + 1 in
  let i_full = latent_rounds + infectious_rounds in
  let expose_code = if latent_rounds > 0 then latent_rounds else i_full in
  let init = ref 0 in
  for v = 0 to n - 1 do
    if start_mask land (1 lsl v) <> 0 then init := !init + (i_full * pow.(v))
  done;
  let attack = Array.make (n + 1) 0.0 in
  let absorbed = ref 0.0 in
  let absorb state q =
    let sus = ref 0 in
    for v = 0 to n - 1 do
      if code state v = 0 then incr sus
    done;
    attack.(n - !sus) <- attack.(n - !sus) +. q;
    absorbed := !absorbed +. q
  in
  let live = ref (Hashtbl.create 16) in
  Hashtbl.replace !live !init 1.0;
  let max_rounds = (n * (latent_rounds + infectious_rounds)) + 1 in
  let t = ref 0 in
  let continue = ref (on_round ~t:0 ~absorbed:!absorbed) in
  while !continue && Hashtbl.length !live > 0 do
    if !t > max_rounds then failwith (name ^ ": chain failed to absorb");
    let next = Hashtbl.create 64 in
    Hashtbl.iter
      (fun state p ->
        let inf_mask = ref 0 and sus_mask = ref 0 in
        let advanced = ref 0 in
        for v = 0 to n - 1 do
          let c = code state v in
          let c' =
            if c = 0 then begin
              sus_mask := !sus_mask lor (1 lsl v);
              0
            end
            else if c <= latent_rounds then
              if c = 1 then i_full else c - 1
            else if c <= i_full then begin
              inf_mask := !inf_mask lor (1 lsl v);
              if c = latent_rounds + 1 then r_code else c - 1
            end
            else r_code
          in
          advanced := !advanced + (c' * pow.(v))
        done;
        let p_next =
          seir_exposure_probabilities g ~contacts ~inf_mask:!inf_mask
            ~sus_mask:!sus_mask
        in
        expand_product n p_next ~weight:p ~add:(fun m q ->
            let st = ref !advanced in
            for v = 0 to n - 1 do
              if m land (1 lsl v) <> 0 then st := !st + (expose_code * pow.(v))
            done;
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt next !st) in
            Hashtbl.replace next !st (prev +. q)))
      !live;
    let next_live = Hashtbl.create 64 in
    Hashtbl.iter
      (fun state q ->
        let dead = ref true in
        for v = 0 to n - 1 do
          let c = code state v in
          if c <> 0 && c <> r_code then dead := false
        done;
        if !dead then absorb state q else Hashtbl.replace next_live state q)
      next;
    live := next_live;
    incr t;
    continue := on_round ~t:!t ~absorbed:!absorbed
  done;
  attack

let seir_attack_dist g ~contacts ~latent_rounds ~infectious_rounds ~start =
  seir_evolve g ~contacts ~latent_rounds ~infectious_rounds ~start
    ~on_round:(fun ~t:_ ~absorbed:_ -> true)

let seir_extinct_series g ~contacts ~latent_rounds ~infectious_rounds ~start
    ~t_max =
  if t_max < 0 then invalid_arg "Exact.seir_extinct_series: t_max >= 0";
  let out = Array.make (t_max + 1) 0.0 in
  let _attack =
    seir_evolve g ~contacts ~latent_rounds ~infectious_rounds ~start
      ~on_round:(fun ~t ~absorbed ->
        if t <= t_max then out.(t) <- absorbed;
        t < t_max)
  in
  (* If the chain absorbed before [t_max], extinction stays at the full
     absorbed mass from there on. *)
  for t = 1 to t_max do
    if out.(t) < out.(t - 1) then out.(t) <- out.(t - 1)
  done;
  out

(* Absorption probabilities of the continuous-time contact process
   (infection rate [lambda] per directed contact edge, recovery rate 1),
   over the jump chain on (infected, ever-infected) pairs. "Fully
   exposed" absorbs the moment every vertex has been infected at least
   once — exactly when [Epidemic.Contact.run] declares [Fully_exposed] —
   and extinction absorbs with value 0. Transmissions to
   already-infected neighbours are self-loops and drop out of the
   absorption equations. Solved by value iteration (the jump chain
   absorbs geometrically on connected graphs). *)
let contact_absorption g ~infection_rate ~start =
  let n = check_size g "Exact.contact_absorption" in
  if infection_rate < 0.0 then invalid_arg "Exact.contact_absorption: infection_rate >= 0";
  if start = [] then invalid_arg "Exact.contact_absorption: empty start";
  let start_mask = mask_of_list "Exact.contact_absorption" n start in
  let full = (1 lsl n) - 1 in
  if start_mask = full then 1.0
  else begin
    let key inf ever = inf lor (ever lsl n) in
    (* Enumerate live states reachable from the start. *)
    let states = Hashtbl.create 64 in
    let frontier = Queue.create () in
    let visit inf ever =
      let k = key inf ever in
      if not (Hashtbl.mem states k) then begin
        Hashtbl.replace states k 0.0;
        Queue.add (inf, ever) frontier
      end
    in
    visit start_mask start_mask;
    let transitions = Hashtbl.create 64 in
    while not (Queue.is_empty frontier) do
      let inf, ever = Queue.pop frontier in
      let outs = ref [] in
      let total = ref 0.0 in
      for v = 0 to n - 1 do
        if inf land (1 lsl v) <> 0 then begin
          (* recovery of v at rate 1 *)
          let inf' = inf land lnot (1 lsl v) in
          outs := (1.0, inf', ever) :: !outs;
          total := !total +. 1.0
        end
        else begin
          (* infection of susceptible v at rate lambda per infected
             neighbour *)
          let hits =
            Graph.Csr.fold_neighbours g v ~init:0 ~f:(fun acc w ->
                if inf land (1 lsl w) <> 0 then acc + 1 else acc)
          in
          if hits > 0 && infection_rate > 0.0 then begin
            let rate = infection_rate *. Float.of_int hits in
            outs := (rate, inf lor (1 lsl v), ever lor (1 lsl v)) :: !outs;
            total := !total +. rate
          end
        end
      done;
      List.iter
        (fun (_, inf', ever') -> if inf' <> 0 && ever' <> full then visit inf' ever')
        !outs;
      Hashtbl.replace transitions (key inf ever) (!total, !outs)
    done;
    (* Value iteration for h(s) = P(fully exposed | s). *)
    let value inf' ever' =
      if ever' = full then 1.0
      else if inf' = 0 then 0.0
      else Option.value ~default:0.0 (Hashtbl.find_opt states (key inf' ever'))
    in
    let delta = ref 1.0 and sweeps = ref 0 in
    while !delta > 1e-13 && !sweeps < 1_000_000 do
      delta := 0.0;
      Hashtbl.iter
        (fun k (total, outs) ->
          let acc =
            List.fold_left
              (fun acc (rate, inf', ever') -> acc +. (rate *. value inf' ever'))
              0.0 outs
          in
          let h = acc /. total in
          let prev = Hashtbl.find states k in
          if Float.abs (h -. prev) > !delta then delta := Float.abs (h -. prev);
          Hashtbl.replace states k h)
        transitions;
      incr sweeps
    done;
    if !delta > 1e-13 then failwith "Exact.contact_absorption: did not converge";
    Hashtbl.find states (key start_mask start_mask)
  end
