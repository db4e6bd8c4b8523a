(* Tests for Numerics.Optimize, the multi-start search built on it
   (Dl.Fit.multi_start), and Numerics.Stats. *)

open Numerics

let checkf tol = Alcotest.(check (float tol))

(* --- Optimize --- *)

let test_nelder_mead_rosenbrock () =
  let rosen v =
    let x = v.(0) and y = v.(1) in
    ((1. -. x) ** 2.) +. (100. *. ((y -. (x *. x)) ** 2.))
  in
  let r = Optimize.nelder_mead ~max_iter:5000 rosen ~x0:[| -1.2; 1. |] in
  Alcotest.(check bool) "converged" true r.Optimize.converged;
  checkf 1e-3 "x*" 1. r.Optimize.x.(0);
  checkf 1e-3 "y*" 1. r.Optimize.x.(1)

let test_nelder_mead_1d () =
  let r = Optimize.nelder_mead (fun v -> (v.(0) +. 3.) ** 2.) ~x0:[| 10. |] in
  checkf 1e-3 "1-d min" (-3.) r.Optimize.x.(0)

let test_multi_start () =
  (* Objective with a local minimum at -2 (value 1) and the global one
     at 3 (value 0): multi-start should find the global one. *)
  let f v =
    let x = v.(0) in
    Float.min (1. +. ((x +. 2.) ** 2.)) ((x -. 3.) ** 2.)
  in
  let r, _ =
    Dl.Fit.multi_start ~tol:1e-9 ~max_iter:2000 (fun () -> f)
      (Dl.Fit.box_starts ~starts:20 ~lo:[| -6. |] ~hi:[| 6. |] (Rng.create 5))
  in
  checkf 1e-2 "global min" 3. r.Optimize.x.(0)

let test_multi_start_first_minimum_wins () =
  (* on a flat objective every restart ties, so the result must be
     restart 0's: the run from the box midpoint *)
  let flat _ = 1. in
  let r, _ =
    Dl.Fit.multi_start (fun () -> flat)
      (Dl.Fit.box_starts ~starts:5 ~lo:[| 0. |] ~hi:[| 4. |] (Rng.create 4))
  in
  let r0 = Optimize.nelder_mead ~tol:1e-6 ~max_iter:250 flat ~x0:[| 2. |] in
  checkf 0. "restart 0's point" r0.Optimize.x.(0) r.Optimize.x.(0)

(* --- Stats --- *)

let test_mean_var_std () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  checkf 1e-12 "mean" 5. (Stats.mean xs);
  checkf 1e-9 "variance (sample)" (32. /. 7.) (Stats.variance xs);
  checkf 1e-9 "std" (sqrt (32. /. 7.)) (Stats.std xs)

let test_variance_degenerate () =
  checkf 1e-12 "single point" 0. (Stats.variance [| 42. |])

let test_median_quantile () =
  checkf 1e-12 "odd median" 3. (Stats.median [| 5.; 3.; 1. |]);
  checkf 1e-12 "even median" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |]);
  checkf 1e-12 "q0" 1. (Stats.quantile [| 1.; 2.; 3.; 4. |] 0.);
  checkf 1e-12 "q1" 4. (Stats.quantile [| 1.; 2.; 3.; 4. |] 1.);
  checkf 1e-12 "q25" 1.75 (Stats.quantile [| 1.; 2.; 3.; 4. |] 0.25)

let test_summary () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "n" 5 s.Stats.n;
  checkf 1e-12 "mean" 3. s.Stats.mean;
  checkf 1e-12 "min" 1. s.Stats.min;
  checkf 1e-12 "max" 5. s.Stats.max;
  checkf 1e-12 "median" 3. s.Stats.median

let test_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.; 0.1; 0.9; 1. |] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "low bin" 2 c0;
  Alcotest.(check int) "high bin" 2 c1

let test_histogram_constant_data () =
  let h = Stats.histogram ~bins:3 [| 5.; 5.; 5. |] in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 3 total

let test_error_metrics () =
  let pred = [| 1.; 2.; 3. |] and actual = [| 1.; 3.; 5. |] in
  checkf 1e-9 "mape" ((0. +. (1. /. 3.) +. (2. /. 5.)) /. 3.)
    (Stats.mape pred actual)

let test_mape_skips_zero_actual () =
  checkf 1e-9 "skips zeros" 0.5 (Stats.mape [| 1.; 3. |] [| 0.; 2. |])

let test_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  checkf 1e-12 "perfect positive" 1. (Stats.pearson xs (Array.map (fun x -> (2. *. x) +. 1.) xs));
  checkf 1e-12 "perfect negative" (-1.) (Stats.pearson xs (Array.map (fun x -> -.x) xs))

let test_linear_regression () =
  let xs = [| 0.; 1.; 2.; 3. |] in
  let ys = Array.map (fun x -> (3. *. x) -. 2.) xs in
  let slope, intercept, r2 = Stats.linear_regression xs ys in
  checkf 1e-9 "slope" 3. slope;
  checkf 1e-9 "intercept" (-2.) intercept;
  checkf 1e-9 "r2" 1. r2

let prop_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"quantile is monotone in q"
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
              (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (q1, q2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.quantile xs lo <= Stats.quantile xs hi +. 1e-12)

let suite =
  [
    Alcotest.test_case "nelder-mead rosenbrock" `Quick test_nelder_mead_rosenbrock;
    Alcotest.test_case "nelder-mead 1d" `Quick test_nelder_mead_1d;
    Alcotest.test_case "multi-start escapes local" `Quick test_multi_start;
    Alcotest.test_case "multi-start first minimum wins" `Quick
      test_multi_start_first_minimum_wins;
    Alcotest.test_case "mean/var/std" `Quick test_mean_var_std;
    Alcotest.test_case "variance degenerate" `Quick test_variance_degenerate;
    Alcotest.test_case "median/quantile" `Quick test_median_quantile;
    Alcotest.test_case "summary" `Quick test_summary;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram constant" `Quick test_histogram_constant_data;
    Alcotest.test_case "error metrics" `Quick test_error_metrics;
    Alcotest.test_case "mape zero actual" `Quick test_mape_skips_zero_actual;
    Alcotest.test_case "pearson" `Quick test_pearson;
    Alcotest.test_case "linear regression" `Quick test_linear_regression;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
  ]
