(* Tests for the prng library: generator determinism and splitting,
   distribution moments, sampling correctness. Statistical assertions use
   wide tolerances (many standard errors) so they are deterministic in
   practice under the fixed seeds. *)

module Rng = Prng.Rng
module Splitmix = Prng.Splitmix
module Dist = Prng.Dist
module Sample = Prng.Sample

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let close ?(eps = 1e-9) msg a b =
  if Float.abs (a -. b) > eps then
    Alcotest.failf "%s: %.6f vs %.6f (eps %.2g)" msg a b eps

(* ---------- determinism & splitting ---------- *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix.create 42 and b = Splitmix.create 43 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Splitmix.next a = Splitmix.next b then incr same
  done;
  check Alcotest.int "different seeds differ" 0 !same

let test_splitmix_copy_independent () =
  let a = Splitmix.create 7 in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  check Alcotest.int "copy continues identically" (Splitmix.next a) (Splitmix.next b);
  ignore (Splitmix.next a);
  (* advancing a does not advance b *)
  let va = Splitmix.next a and vb = Splitmix.next b in
  check Alcotest.bool "diverged after unequal advances" true (va <> vb)

let test_split_streams_differ () =
  let parent = Splitmix.create 1 in
  let child1 = Splitmix.split parent in
  let child2 = Splitmix.split parent in
  let collisions = ref 0 in
  for _ = 1 to 256 do
    if Splitmix.next child1 = Splitmix.next child2 then incr collisions
  done;
  check Alcotest.int "split streams do not collide" 0 !collisions

let test_int_bounds () =
  let rng = Rng.create 9 in
  for bound = 1 to 50 do
    for _ = 1 to 50 do
      let x = Rng.int rng bound in
      if x < 0 || x >= bound then Alcotest.failf "Rng.int out of [0,%d): %d" bound x
    done
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_float_unit_interval () =
  let rng = Rng.create 10 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "Rng.float out of [0,1): %f" x
  done

let test_int_in_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    if x < -5 || x > 5 then Alcotest.failf "int_in_range out of bounds: %d" x
  done;
  check Alcotest.int "degenerate range" 3 (Rng.int_in_range rng ~lo:3 ~hi:3)

let test_uniformity_chi2 () =
  (* 10 cells, 100k draws: chi-squared with 9 dof has mean 9, sd ~4.24;
     fail only beyond ~8 sd. *)
  let rng = Rng.create 12 in
  let cells = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let c = Rng.int rng 10 in
    cells.(c) <- cells.(c) + 1
  done;
  let expected = Float.of_int draws /. 10.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = Float.of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 cells
  in
  if chi2 > 45.0 then Alcotest.failf "chi-squared too large: %.1f" chi2

let test_int_edge_bounds () =
  let rng = Rng.create 13 in
  (* bound 1 always yields 0; power-of-two fast path stays in range *)
  for _ = 1 to 100 do
    check Alcotest.int "bound 1" 0 (Rng.int rng 1)
  done;
  for _ = 1 to 1000 do
    let x = Rng.int rng 1024 in
    if x < 0 || x >= 1024 then Alcotest.failf "pow2 bound out of range: %d" x;
    let y = Rng.int rng max_int in
    if y < 0 then Alcotest.fail "max bound negative"
  done

let test_bernoulli_extremes () =
  let rng = Rng.create 14 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Rng.bernoulli rng 0.0);
    check Alcotest.bool "p=1 always" true (Rng.bernoulli rng 1.0);
    check Alcotest.bool "p<0 never" false (Rng.bernoulli rng (-3.0));
    check Alcotest.bool "p>1 always" true (Rng.bernoulli rng 7.0)
  done

(* The mean of Uniform[0,1) draws is 0.5 to within many standard
   errors. *)
let test_float_mean () =
  let rng = Rng.create 123 in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  (* sd of mean ~ 0.00065; allow 10 sd *)
  close ~eps:0.0065 "splitmix mean vs 0.5" (!acc /. Float.of_int n) 0.5

(* ---------- distributions ---------- *)

let sample_mean_var n f =
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let x = f () in
    acc := !acc +. x;
    acc2 := !acc2 +. (x *. x)
  done;
  let m = !acc /. Float.of_int n in
  (m, (!acc2 /. Float.of_int n) -. (m *. m))

let test_bernoulli_mean () =
  let rng = Rng.create 21 in
  let m, _ = sample_mean_var 50_000 (fun () -> Float.of_int (Dist.bernoulli rng 0.3)) in
  close ~eps:0.02 "bernoulli(0.3) mean" m 0.3

let test_binomial_moments () =
  let rng = Rng.create 22 in
  (* exact path (n <= 256) *)
  let m, v = sample_mean_var 20_000 (fun () -> Float.of_int (Dist.binomial rng ~n:40 ~p:0.25)) in
  close ~eps:0.2 "binomial(40,0.25) mean" m 10.0;
  close ~eps:0.8 "binomial(40,0.25) var" v 7.5;
  (* approximate path (n > 256, np large) *)
  let m2, _ = sample_mean_var 20_000 (fun () -> Float.of_int (Dist.binomial rng ~n:1000 ~p:0.5)) in
  close ~eps:2.0 "binomial(1000,0.5) mean" m2 500.0;
  check Alcotest.int "binomial p=0" 0 (Dist.binomial rng ~n:10 ~p:0.0);
  check Alcotest.int "binomial p=1" 10 (Dist.binomial rng ~n:10 ~p:1.0)

let test_geometric_moments () =
  let rng = Rng.create 23 in
  let p = 0.2 in
  let m, _ = sample_mean_var 50_000 (fun () -> Float.of_int (Dist.geometric rng p)) in
  (* failures before success: mean (1-p)/p = 4 *)
  close ~eps:0.15 "geometric(0.2) mean" m 4.0;
  check Alcotest.int "geometric(1)" 0 (Dist.geometric rng 1.0)

let test_poisson_moments () =
  let rng = Rng.create 24 in
  List.iter
    (fun lambda ->
      let m, v = sample_mean_var 30_000 (fun () -> Float.of_int (Dist.poisson rng lambda)) in
      close ~eps:(0.05 *. lambda +. 0.05) (Printf.sprintf "poisson(%g) mean" lambda) m lambda;
      close ~eps:(0.12 *. lambda +. 0.1) (Printf.sprintf "poisson(%g) var" lambda) v lambda)
    [ 0.5; 4.0; 60.0 ];
  check Alcotest.int "poisson(0)" 0 (Dist.poisson rng 0.0)

let test_exponential_mean () =
  let rng = Rng.create 25 in
  let m, _ = sample_mean_var 50_000 (fun () -> Dist.exponential rng ~rate:2.0) in
  close ~eps:0.02 "exp(2) mean" m 0.5

let test_normal_moments () =
  let rng = Rng.create 26 in
  let m, v = sample_mean_var 50_000 (fun () -> Dist.normal rng ~mu:3.0 ~sigma:2.0) in
  close ~eps:0.1 "normal mean" m 3.0;
  close ~eps:0.25 "normal var" v 4.0

let test_categorical () =
  let rng = Rng.create 27 in
  let weights = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Dist.categorical rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.int "zero-weight category never drawn" 0 counts.(1);
  close ~eps:0.02 "category 0 rate" (Float.of_int counts.(0) /. 40_000.0) 0.25

(* ---------- sampling ---------- *)

let test_shuffle_is_permutation () =
  let rng = Rng.create 31 in
  let a = Array.init 100 Fun.id in
  Sample.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 100 Fun.id) sorted

let test_shuffle_uniform_position () =
  (* Element 0's final position should be uniform: mean ~ (n-1)/2. *)
  let rng = Rng.create 32 in
  let n = 10 in
  let acc = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let a = Array.init n Fun.id in
    Sample.shuffle rng a;
    let pos = ref 0 in
    Array.iteri (fun i x -> if x = 0 then pos := i) a;
    acc := !acc + !pos
  done;
  close ~eps:0.1 "mean position of element 0"
    (Float.of_int !acc /. Float.of_int trials)
    4.5

let test_without_replacement () =
  let rng = Rng.create 33 in
  for _ = 1 to 200 do
    let k = 1 + Rng.int rng 20 in
    let n = k + Rng.int rng 50 in
    let s = Sample.without_replacement rng ~k ~n in
    check Alcotest.int "size" k (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 0 to k - 2 do
      if sorted.(i) = sorted.(i + 1) then Alcotest.fail "duplicate in sample"
    done;
    Array.iter (fun x -> if x < 0 || x >= n then Alcotest.fail "out of range") s
  done;
  check Alcotest.int "k = n returns everything" 10
    (Array.length (Sample.without_replacement rng ~k:10 ~n:10))

let test_without_replacement_uniform () =
  (* Each element appears in a k-of-n sample with probability k/n. *)
  let rng = Rng.create 34 in
  let n = 10 and k = 3 in
  let counts = Array.make n 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    Array.iter (fun x -> counts.(x) <- counts.(x) + 1)
      (Sample.without_replacement rng ~k ~n)
  done;
  Array.iteri
    (fun i c ->
      close ~eps:0.02
        (Printf.sprintf "inclusion probability of %d" i)
        (Float.of_int c /. Float.of_int trials)
        0.3)
    counts

let test_reservoir () =
  let rng = Rng.create 35 in
  let out = Sample.reservoir rng ~k:5 (Seq.init 100 Fun.id) in
  check Alcotest.int "k elements" 5 (Array.length out);
  let short = Sample.reservoir rng ~k:10 (Seq.init 4 Fun.id) in
  check Alcotest.int "short sequence" 4 (Array.length short)

let test_alias_matches_weights () =
  let rng = Rng.create 36 in
  let weights = [| 0.1; 0.4; 0.0; 0.5 |] in
  let t = Sample.Alias.create weights in
  check Alcotest.int "size" 4 (Sample.Alias.size t);
  let counts = Array.make 4 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let i = Sample.Alias.draw t rng in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.int "zero weight never drawn" 0 counts.(2);
  Array.iteri
    (fun i c ->
      close ~eps:0.01
        (Printf.sprintf "alias rate %d" i)
        (Float.of_int c /. Float.of_int trials)
        weights.(i))
    counts

let alias_vs_categorical_prop =
  QCheck.Test.make ~name:"alias table accepts any positive weights" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range 0.0 10.0))
    (fun ws ->
      QCheck.assume (List.exists (fun w -> w > 0.0) ws);
      let t = Sample.Alias.create (Array.of_list ws) in
      let rng = Rng.create 1 in
      let i = Sample.Alias.draw t rng in
      i >= 0 && i < List.length ws)

let rng_int_unbiased_prop =
  QCheck.Test.make ~name:"Rng.int stays in range for random bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_splitmix_copy_independent;
          Alcotest.test_case "split independence" `Quick test_split_streams_differ;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "float in [0,1)" `Quick test_float_unit_interval;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "uniformity (chi2)" `Quick test_uniformity_chi2;
          Alcotest.test_case "int edge bounds" `Quick test_int_edge_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          qtest rng_int_unbiased_prop;
        ] );
      ( "dist",
        [
          Alcotest.test_case "bernoulli" `Quick test_bernoulli_mean;
          Alcotest.test_case "binomial" `Quick test_binomial_moments;
          Alcotest.test_case "geometric" `Quick test_geometric_moments;
          Alcotest.test_case "poisson" `Quick test_poisson_moments;
          Alcotest.test_case "exponential" `Quick test_exponential_mean;
          Alcotest.test_case "normal" `Quick test_normal_moments;
          Alcotest.test_case "categorical" `Quick test_categorical;
        ] );
      ( "sample",
        [
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle uniform" `Quick test_shuffle_uniform_position;
          Alcotest.test_case "without_replacement validity" `Quick test_without_replacement;
          Alcotest.test_case "without_replacement uniform" `Quick test_without_replacement_uniform;
          Alcotest.test_case "reservoir" `Quick test_reservoir;
          Alcotest.test_case "alias method" `Quick test_alias_matches_weights;
          qtest alias_vs_categorical_prop;
        ] );
    ]
