(* Tests for the stats library: summaries, quantiles, intervals,
   regression, tables. *)

module Summary = Stats.Summary
module Quantile = Stats.Quantile
module Ci = Stats.Ci
module Regress = Stats.Regress
module Table = Stats.Table

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let close ?(eps = 1e-9) msg a b =
  if Float.abs (a -. b) > eps then Alcotest.failf "%s: %.8f vs %.8f" msg a b

(* ---------- Summary ---------- *)

let test_summary_known () =
  let s = Summary.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check Alcotest.int "count" 8 (Summary.count s);
  close "mean" 5.0 (Summary.mean s);
  (* sample variance of the classic array: ss = 32, / 7 *)
  close "variance" (32.0 /. 7.0) (Summary.variance s);
  close "min" 2.0 (Summary.min s);
  close "max" 9.0 (Summary.max s);
  close "std_error" (Summary.stddev s /. sqrt 8.0) (Summary.std_error s)

let test_summary_empty_and_single () =
  let s = Summary.create () in
  check Alcotest.int "empty count" 0 (Summary.count s);
  Alcotest.check_raises "empty mean" (Invalid_argument "Summary: empty accumulator")
    (fun () -> ignore (Summary.mean s));
  Summary.add s 42.0;
  close "single mean" 42.0 (Summary.mean s);
  close "single variance" 0.0 (Summary.variance s)

let test_summary_merge () =
  let a = Summary.of_array [| 1.0; 2.0; 3.0 |] in
  let b = Summary.of_array [| 10.0; 20.0 |] in
  let m = Summary.merge a b in
  let direct = Summary.of_array [| 1.0; 2.0; 3.0; 10.0; 20.0 |] in
  close "merged mean" (Summary.mean direct) (Summary.mean m);
  close ~eps:1e-9 "merged variance" (Summary.variance direct) (Summary.variance m);
  close "merged min" 1.0 (Summary.min m);
  close "merged max" 20.0 (Summary.max m);
  (* merging with empty is identity *)
  let e = Summary.create () in
  close "merge empty left" (Summary.mean a) (Summary.mean (Summary.merge e a));
  close "merge empty right" (Summary.mean a) (Summary.mean (Summary.merge a e))

let summary_merge_prop =
  QCheck.Test.make ~name:"merge equals concatenation" ~count:200
    QCheck.(pair (small_list (float_range (-100.0) 100.0)) (small_list (float_range (-100.0) 100.0)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] || ys <> []);
      let a = Summary.of_array (Array.of_list xs) in
      let b = Summary.of_array (Array.of_list ys) in
      let m = Summary.merge a b in
      let d = Summary.of_array (Array.of_list (xs @ ys)) in
      Float.abs (Summary.mean m -. Summary.mean d) < 1e-6
      && Float.abs (Summary.variance m -. Summary.variance d) < 1e-6)

(* ---------- Quantile ---------- *)

let test_quantiles () =
  let xs = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  close "median" 35.0 (Quantile.median xs);
  close "q0" 15.0 (Quantile.quantile xs 0.0);
  close "q1" 50.0 (Quantile.quantile xs 1.0);
  (* type-7: h = 4*0.25 = 1 -> element index 1 *)
  close "q25" 20.0 (Quantile.quantile xs 0.25);
  close "q75" 40.0 (Quantile.quantile xs 0.75);
  close "iqr" 20.0 (Quantile.iqr xs);
  (* interpolation case *)
  close "q10 interpolated" 17.0 (Quantile.quantile xs 0.1)

let test_quantile_unsorted_input () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  close "median of unsorted" 2.0 (Quantile.median xs);
  check Alcotest.(array (float 0.0)) "input unchanged" [| 3.0; 1.0; 2.0 |] xs

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile: empty sample") (fun () ->
      ignore (Quantile.median [||]));
  Alcotest.check_raises "bad q" (Invalid_argument "Quantile: q outside [0,1]")
    (fun () -> ignore (Quantile.quantile [| 1.0 |] 1.5))

let quantile_monotone_prop =
  QCheck.Test.make ~name:"quantiles are monotone in q" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-50.0) 50.0))
    (fun xs ->
      let a = Array.of_list xs in
      let q1 = Quantile.quantile a 0.2
      and q2 = Quantile.quantile a 0.5
      and q3 = Quantile.quantile a 0.9 in
      q1 <= q2 && q2 <= q3)

(* ---------- Ci ---------- *)

let test_z_quantile () =
  close ~eps:1e-6 "median" 0.0 (Ci.z_quantile 0.5);
  close ~eps:1e-4 "97.5%" 1.959964 (Ci.z_quantile 0.975);
  close ~eps:1e-4 "2.5%" (-1.959964) (Ci.z_quantile 0.025);
  close ~eps:1e-4 "99%" 2.326348 (Ci.z_quantile 0.99);
  close ~eps:1e-4 "84.13%" 1.0 (Ci.z_quantile 0.8413447)

let test_t_quantile () =
  (* Reference values from standard t tables. *)
  close ~eps:1e-6 "t(1) 0.975 = tan(pi*0.475)" (tan (Float.pi *. 0.475))
    (Ci.t_quantile ~df:1 0.975);
  close ~eps:1e-3 "t(2) 0.975" 4.30265 (Ci.t_quantile ~df:2 0.975);
  close ~eps:0.02 "t(5) 0.975" 2.5706 (Ci.t_quantile ~df:5 0.975);
  close ~eps:0.01 "t(10) 0.975" 2.2281 (Ci.t_quantile ~df:10 0.975);
  close ~eps:0.005 "t(30) 0.975" 2.0423 (Ci.t_quantile ~df:30 0.975);
  close ~eps:0.002 "t(200) ~ z" 1.9719 (Ci.t_quantile ~df:200 0.975)

let test_mean_ci () =
  let s = Summary.of_array [| 10.0; 12.0; 9.0; 11.0; 13.0; 8.0; 12.0; 10.0 |] in
  let ci = Ci.mean_ci s in
  check Alcotest.bool "contains mean" true (Ci.contains ci (Summary.mean s));
  check Alcotest.bool "symmetric" true
    (Float.abs (ci.Ci.hi +. ci.Ci.lo -. (2.0 *. Summary.mean s)) < 1e-9);
  (* narrower at lower confidence *)
  let ci80 = Ci.mean_ci ~level:0.8 s in
  check Alcotest.bool "80% narrower" true (ci80.Ci.hi -. ci80.Ci.lo < ci.Ci.hi -. ci.Ci.lo)

let test_proportion_ci () =
  let ci = Ci.proportion_ci ~successes:50 ~trials:100 () in
  check Alcotest.bool "contains 0.5" true (Ci.contains ci 0.5);
  check Alcotest.bool "in [0,1]" true (ci.Ci.lo >= 0.0 && ci.Ci.hi <= 1.0);
  let zero = Ci.proportion_ci ~successes:0 ~trials:20 () in
  close "lo at 0" 0.0 zero.Ci.lo;
  check Alcotest.bool "hi above 0" true (zero.Ci.hi > 0.0);
  let full = Ci.proportion_ci ~successes:20 ~trials:20 () in
  close "hi at 1" 1.0 full.Ci.hi

let test_mean_ci_coverage () =
  (* Frequentist check: ~95% of intervals over N(0,1) samples cover 0. *)
  let rng = Prng.Rng.create 55 in
  let covered = ref 0 in
  let reps = 2000 in
  for _ = 1 to reps do
    let s = Summary.create () in
    for _ = 1 to 12 do
      Summary.add s (Prng.Dist.normal rng ~mu:0.0 ~sigma:1.0)
    done;
    if Ci.contains (Ci.mean_ci s) 0.0 then incr covered
  done;
  let rate = Float.of_int !covered /. Float.of_int reps in
  if rate < 0.92 || rate > 0.98 then Alcotest.failf "coverage %f not ~0.95" rate

let test_bootstrap () =
  let rng = Prng.Rng.create 56 in
  let xs = Array.init 200 (fun i -> Float.of_int (i mod 10)) in
  let ci =
    Ci.bootstrap rng xs ~statistic:(fun a ->
        Array.fold_left ( +. ) 0.0 a /. Float.of_int (Array.length a))
  in
  check Alcotest.bool "bootstrap brackets mean" true (Ci.contains ci 4.5)

(* Wilson interval: always inside [0,1] and always contains the point
   estimate (the centre is pulled towards 1/2 by strictly less than the
   half-width). *)
let wilson_interval_prop =
  QCheck.Test.make ~name:"wilson interval bounds and point estimate" ~count:500
    QCheck.(
      make
        Gen.(
          int_range 1 400 >>= fun trials ->
          int_range 0 trials >|= fun successes -> (successes, trials)))
    (fun (successes, trials) ->
      let ci = Ci.proportion_ci ~successes ~trials () in
      let p_hat = Float.of_int successes /. Float.of_int trials in
      (* 1e-12 slack: at the extremes |centre - p_hat| equals the
         half-width exactly and rounding can tip the comparison *)
      ci.Ci.lo >= 0.0 && ci.Ci.hi <= 1.0
      && ci.Ci.lo <= p_hat +. 1e-12
      && p_hat <= ci.Ci.hi +. 1e-12)

(* t quantile: strictly monotone in p at every df, and converging to the
   normal quantile as df grows. *)
let t_quantile_monotone_prop =
  QCheck.Test.make ~name:"t_quantile monotone in p" ~count:300
    QCheck.(
      pair (QCheck.make Gen.(oneofl [ 1; 2; 3; 5; 12; 60; 500 ]))
        (pair (float_range 0.02 0.98) (float_range 0.02 0.98)))
    (fun (df, (p1, p2)) ->
      QCheck.assume (Float.abs (p1 -. p2) > 1e-6);
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Ci.t_quantile ~df lo < Ci.t_quantile ~df hi)

let t_quantile_normal_limit_prop =
  QCheck.Test.make ~name:"t_quantile tends to z_quantile" ~count:200
    QCheck.(float_range 0.02 0.98)
    (fun p -> Float.abs (Ci.t_quantile ~df:100_000 p -. Ci.z_quantile p) < 1e-3)

let test_bootstrap_deterministic () =
  let xs = Array.init 100 (fun i -> sin (Float.of_int i)) in
  let mean a = Array.fold_left ( +. ) 0.0 a /. Float.of_int (Array.length a) in
  let ci1 = Ci.bootstrap (Prng.Rng.create 4242) xs ~statistic:mean in
  let ci2 = Ci.bootstrap (Prng.Rng.create 4242) xs ~statistic:mean in
  check (Alcotest.float 0.0) "lo bit-identical" ci1.Ci.lo ci2.Ci.lo;
  check (Alcotest.float 0.0) "hi bit-identical" ci1.Ci.hi ci2.Ci.hi;
  (* a different stream is allowed to (and here does) move the endpoints *)
  let ci3 = Ci.bootstrap (Prng.Rng.create 4243) xs ~statistic:mean in
  check Alcotest.bool "different seed differs" true
    (ci3.Ci.lo <> ci1.Ci.lo || ci3.Ci.hi <> ci1.Ci.hi)

(* ---------- Gof ---------- *)

module Gof = Stats.Gof

let test_gof_gamma_known () =
  (* log Γ at integers and the half-integer closed form. *)
  close ~eps:1e-10 "lgamma 1" 0.0 (Gof.log_gamma 1.0);
  close ~eps:1e-10 "lgamma 5" (log 24.0) (Gof.log_gamma 5.0);
  close ~eps:1e-9 "lgamma 1/2" (0.5 *. log Float.pi) (Gof.log_gamma 0.5);
  (* chi-square with 2 df is Exp(1/2): closed-form CDF. *)
  close ~eps:1e-10 "chi2(2) cdf" (1.0 -. exp (-1.5)) (Gof.chi2_cdf ~df:2 3.0);
  close ~eps:1e-10 "P + Q = 1" 1.0 (Gof.gamma_p 3.7 2.2 +. Gof.gamma_q 3.7 2.2);
  (* standard critical values *)
  close ~eps:1e-5 "chi2(1) sf at 6.6349" 0.01 (Gof.chi2_sf ~df:1 6.6348966);
  close ~eps:1e-5 "chi2(10) sf at 23.2093" 0.01 (Gof.chi2_sf ~df:10 23.209251);
  (* deep tail keeps relative accuracy: chi2(1) sf(x) = erfc(sqrt(x/2)) *)
  let tail = Gof.chi2_sf ~df:1 60.0 in
  check Alcotest.bool "deep tail in range" true (tail > 1e-16 && tail < 1e-12)

let test_gof_normal_cdf () =
  close ~eps:1e-9 "phi(0)" 0.5 (Gof.normal_cdf 0.0);
  close ~eps:1e-6 "phi(1.96)" 0.975 (Gof.normal_cdf 1.959964);
  close ~eps:1e-6 "phi(-1.96)" 0.025 (Gof.normal_cdf (-1.959964));
  (* inverse consistency with Ci.z_quantile *)
  close ~eps:1e-6 "phi(z(0.9))" 0.9 (Gof.normal_cdf (Ci.z_quantile 0.9))

let test_gof_kolmogorov () =
  close ~eps:2e-4 "Q at 5% critical value" 0.05 (Gof.kolmogorov_q 1.358);
  close ~eps:2e-4 "Q at 1% critical value" 0.01 (Gof.kolmogorov_q 1.628);
  close ~eps:1e-12 "Q(0) = 1" 1.0 (Gof.kolmogorov_q 0.0);
  check Alcotest.bool "Q monotone" true
    (Gof.kolmogorov_q 0.5 > Gof.kolmogorov_q 1.0
    && Gof.kolmogorov_q 1.0 > Gof.kolmogorov_q 2.0)

let test_gof_pearson () =
  (* A fair-die table; chi2 = sum (o-e)^2 / 10 with e = 10. *)
  let observed = [| 12; 8; 11; 9; 10; 10 |] and expected = Array.make 6 10.0 in
  let r = Gof.pearson_chi2 ~alpha:0.01 ~observed ~expected () in
  close ~eps:1e-12 "statistic" 1.0 r.Gof.statistic;
  check Alcotest.int "df" 5 r.Gof.df;
  close ~eps:1e-6 "p" (Gof.chi2_sf ~df:5 1.0) r.Gof.p_value;
  check Alcotest.bool "passes" true (Gof.passed r);
  (* a grossly wrong table is rejected *)
  let bad = Gof.pearson_chi2 ~alpha:0.01 ~observed:[| 60; 0; 0; 0; 0; 0 |] ~expected () in
  check Alcotest.bool "rejects" false (Gof.passed bad);
  Alcotest.check_raises "zero expected"
    (Invalid_argument
       "Gof.pearson_chi2: expected counts must be positive (pool sparse cells)")
    (fun () ->
      ignore (Gof.pearson_chi2 ~observed:[| 1; 1 |] ~expected:[| 2.0; 0.0 |] ()))

let test_gof_pooling () =
  let observed = [| 50; 30; 3; 1; 0 |] in
  let expected = [| 48.0; 32.0; 2.0; 1.5; 0.5 |] in
  let o, e = Gof.pool_low_expected ~observed ~expected () in
  check Alcotest.(array int) "pooled observed" [| 50; 30; 4 |] o;
  close ~eps:1e-12 "pooled expected" 4.0 e.(2);
  check Alcotest.int "pooled length" 3 (Array.length e);
  (* nothing sparse: unchanged *)
  let o2, e2 = Gof.pool_low_expected ~observed:[| 10; 10 |] ~expected:[| 9.0; 11.0 |] () in
  check Alcotest.(array int) "unchanged" [| 10; 10 |] o2;
  check Alcotest.int "unchanged length" 2 (Array.length e2)

let test_gof_binomial_test () =
  (* All outcomes are at most as likely as 5/10 under p = 1/2. *)
  let r = Gof.binomial_test ~successes:5 ~trials:10 ~p:0.5 () in
  close ~eps:1e-9 "central p = 1" 1.0 r.Gof.p_value;
  (* only {0, 10} are as extreme as 0: p = 2/1024 *)
  let r0 = Gof.binomial_test ~successes:0 ~trials:10 ~p:0.5 () in
  close ~eps:1e-12 "two-point tail" (2.0 /. 1024.0) r0.Gof.p_value;
  let r1 = Gof.binomial_test ~alpha:0.01 ~successes:0 ~trials:10 ~p:0.5 () in
  check Alcotest.bool "rejected at 1%" false (Gof.passed r1);
  (* degenerate p *)
  close "p=0 consistent" 1.0 (Gof.binomial_test ~successes:0 ~trials:5 ~p:0.0 ()).Gof.p_value;
  close "p=0 violated" 0.0 (Gof.binomial_test ~successes:1 ~trials:5 ~p:0.0 ()).Gof.p_value

let test_gof_ks () =
  (* Uniform sample against the uniform CDF: statistic computed by hand
     for a tiny fixed sample. *)
  let xs = [| 0.1; 0.26; 0.5; 0.75; 0.9 |] in
  let r = Gof.ks1 ~alpha:0.01 ~cdf:(fun x -> x) xs in
  close ~eps:1e-12 "D by hand" 0.15 r.Gof.statistic;
  check Alcotest.bool "uniform passes" true (Gof.passed r);
  (* a large uniform sample against the wrong CDF is rejected *)
  let rng = Prng.Rng.create 7 in
  let big = Array.init 2000 (fun _ -> Prng.Rng.float rng) in
  let wrong = Gof.ks1 ~alpha:1e-6 ~cdf:(fun x -> x ** 2.0) big in
  check Alcotest.bool "wrong cdf rejected" false (Gof.passed wrong);
  (* two-sample: same source passes, shifted source fails *)
  let a = Array.init 1500 (fun _ -> Prng.Rng.float rng) in
  let b = Array.init 1500 (fun _ -> Prng.Rng.float rng) in
  check Alcotest.bool "same dist passes" true (Gof.passed (Gof.ks2 ~alpha:1e-6 a b));
  let shifted = Array.map (fun x -> x +. 0.2) b in
  check Alcotest.bool "shifted rejected" false (Gof.passed (Gof.ks2 ~alpha:1e-6 a shifted))

let test_gof_multiple_testing () =
  close ~eps:1e-18 "bonferroni" 1e-8 (Gof.bonferroni ~family_alpha:1e-6 ~m:100);
  let rejected = Gof.benjamini_hochberg ~q:0.05 [| 0.6; 0.2; 0.001 |] in
  check Alcotest.(array bool) "BH step-up" [| false; false; true |] rejected;
  let all = Gof.benjamini_hochberg ~q:0.05 [| 0.01; 0.04; 0.03; 0.005 |] in
  check Alcotest.(array bool) "BH rejects all" [| true; true; true; true |] all;
  check Alcotest.int "empty ok" 0 (Array.length (Gof.benjamini_hochberg ~q:0.05 [||]))

let test_gof_verdict_plumbing () =
  let r = Gof.binomial_test ~alpha:0.01 ~successes:48 ~trials:100 ~p:0.5 () in
  check Alcotest.bool "alpha recorded" true (r.Gof.alpha = 0.01);
  check Alcotest.bool "all_pass" true (Gof.all_pass [ r ]);
  let s = Format.asprintf "%a" Gof.pp r in
  check Alcotest.bool "pp mentions test name" true
    (String.length s > 10 && String.sub s 0 14 = "binomial-exact")

(* ---------- Regress ---------- *)

let test_ols_exact_line () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> 3.0 +. (2.0 *. x)) xs in
  let f = Regress.ols xs ys in
  close "slope" 2.0 f.Regress.slope;
  close "intercept" 3.0 f.Regress.intercept;
  close "r2" 1.0 f.Regress.r2;
  close "predict" 13.0 (Regress.predict f 5.0)

let test_ols_noisy () =
  let rng = Prng.Rng.create 57 in
  let n = 500 in
  let xs = Array.init n (fun i -> Float.of_int i /. 10.0) in
  let ys = Array.map (fun x -> 1.0 +. (0.5 *. x) +. Prng.Dist.normal rng ~mu:0.0 ~sigma:0.3) xs in
  let f = Regress.ols xs ys in
  close ~eps:0.01 "noisy slope" 0.5 f.Regress.slope;
  close ~eps:0.15 "noisy intercept" 1.0 f.Regress.intercept;
  check Alcotest.bool "good fit" true (f.Regress.r2 > 0.97);
  close ~eps:0.05 "residual std" 0.3 f.Regress.residual_std

let test_loglog_power_law () =
  let xs = [| 2.0; 4.0; 8.0; 16.0; 32.0 |] in
  let ys = Array.map (fun x -> 5.0 *. (x ** 1.5)) xs in
  let f = Regress.loglog xs ys in
  close ~eps:1e-9 "exponent" 1.5 f.Regress.slope;
  close ~eps:1e-9 "log prefactor" (log 5.0) f.Regress.intercept

let test_semilog () =
  let xs = [| Float.exp 1.0; Float.exp 2.0; Float.exp 3.0 |] in
  let ys = [| 5.0; 7.0; 9.0 |] in
  let f = Regress.semilog xs ys in
  close ~eps:1e-9 "semilog slope" 2.0 f.Regress.slope;
  close ~eps:1e-9 "semilog intercept" 3.0 f.Regress.intercept

let test_regress_errors () =
  Alcotest.check_raises "identical xs" (Invalid_argument "Regress.ols: xs are all identical")
    (fun () -> ignore (Regress.ols [| 1.0; 1.0 |] [| 2.0; 3.0 |]));
  Alcotest.check_raises "too few" (Invalid_argument "Regress.ols: need at least two points")
    (fun () -> ignore (Regress.ols [| 1.0 |] [| 2.0 |]));
  Alcotest.check_raises "negative for loglog"
    (Invalid_argument "Regress.loglog: values must be positive") (fun () ->
      ignore (Regress.loglog [| 1.0; -2.0 |] [| 1.0; 2.0 |]))

(* ---------- Sparkline ---------- *)

module Sparkline = Stats.Sparkline

let test_sparkline_basic () =
  check Alcotest.string "empty" "" (Sparkline.render [||]);
  check Alcotest.string "constant maps to top" "@@@" (Sparkline.render [| 5.0; 5.0; 5.0 |]);
  let s = Sparkline.render [| 0.0; 10.0 |] in
  check Alcotest.int "two chars" 2 (String.length s);
  check Alcotest.bool "min is space, max is @" true (s.[0] = ' ' && s.[1] = '@')

let test_sparkline_bucketing () =
  let long = Array.init 1000 Float.of_int in
  let s = Sparkline.render ~width:50 long in
  check Alcotest.int "bucketed width" 50 (String.length s);
  (* monotone input stays monotone after bucketing *)
  let ramp = " .:-=+*#%@" in
  let level c = String.index ramp c in
  for i = 1 to String.length s - 1 do
    if level s.[i] < level s.[i - 1] then Alcotest.fail "not monotone"
  done

let test_sparkline_ints_and_scale () =
  let s = Sparkline.render_ints [| 1; 2; 3 |] in
  check Alcotest.int "length" 3 (String.length s);
  check Alcotest.string "scale caption" "1 .. 4096" (Sparkline.scale_line ~lo:1.0 ~hi:4096.0)

(* ---------- Table ---------- *)

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  check Alcotest.int "line count" 4 (List.length lines);
  check Alcotest.string "header" "name   value" (List.nth lines 0);
  check Alcotest.string "row 1" "alpha      1" (List.nth lines 2);
  check Alcotest.string "row 2" "b         22" (List.nth lines 3);
  check Alcotest.int "rows" 2 (Table.rows t)

let test_table_errors () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "only one" ]);
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns")
    (fun () -> ignore (Table.create []))

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "known values" `Quick test_summary_known;
          Alcotest.test_case "empty/single" `Quick test_summary_empty_and_single;
          Alcotest.test_case "merge" `Quick test_summary_merge;
          qtest summary_merge_prop;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "known quantiles" `Quick test_quantiles;
          Alcotest.test_case "unsorted input" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "errors" `Quick test_quantile_errors;
          qtest quantile_monotone_prop;
        ] );
      ( "ci",
        [
          Alcotest.test_case "z quantile" `Quick test_z_quantile;
          Alcotest.test_case "t quantile" `Quick test_t_quantile;
          Alcotest.test_case "mean ci" `Quick test_mean_ci;
          Alcotest.test_case "proportion ci" `Quick test_proportion_ci;
          Alcotest.test_case "coverage" `Quick test_mean_ci_coverage;
          Alcotest.test_case "bootstrap" `Quick test_bootstrap;
          Alcotest.test_case "bootstrap deterministic" `Quick
            test_bootstrap_deterministic;
          qtest wilson_interval_prop;
          qtest t_quantile_monotone_prop;
          qtest t_quantile_normal_limit_prop;
        ] );
      ( "gof",
        [
          Alcotest.test_case "gamma and chi2" `Quick test_gof_gamma_known;
          Alcotest.test_case "normal cdf" `Quick test_gof_normal_cdf;
          Alcotest.test_case "kolmogorov" `Quick test_gof_kolmogorov;
          Alcotest.test_case "pearson" `Quick test_gof_pearson;
          Alcotest.test_case "pooling" `Quick test_gof_pooling;
          Alcotest.test_case "binomial test" `Quick test_gof_binomial_test;
          Alcotest.test_case "ks" `Quick test_gof_ks;
          Alcotest.test_case "multiple testing" `Quick test_gof_multiple_testing;
          Alcotest.test_case "verdict plumbing" `Quick test_gof_verdict_plumbing;
        ] );
      ( "regress",
        [
          Alcotest.test_case "exact line" `Quick test_ols_exact_line;
          Alcotest.test_case "noisy line" `Quick test_ols_noisy;
          Alcotest.test_case "power law" `Quick test_loglog_power_law;
          Alcotest.test_case "semilog" `Quick test_semilog;
          Alcotest.test_case "errors" `Quick test_regress_errors;
        ] );
      ( "sparkline",
        [
          Alcotest.test_case "basic" `Quick test_sparkline_basic;
          Alcotest.test_case "bucketing" `Quick test_sparkline_bucketing;
          Alcotest.test_case "ints and scale" `Quick test_sparkline_ints_and_scale;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "errors" `Quick test_table_errors;
        ] );
    ]
