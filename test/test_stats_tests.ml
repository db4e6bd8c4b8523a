(* Tests for Numerics.Stats_tests: the bootstrap confidence intervals. *)

open Numerics

let test_bootstrap_mean_ci_covers_truth () =
  let rng = Rng.create 5 in
  let sample = Array.init 200 (fun _ -> Rng.normal rng ~mu:7. ~sigma:2. ()) in
  let lo, hi = Stats_tests.bootstrap_mean_ci rng sample in
  Alcotest.(check bool) "covers true mean" true (lo < 7.2 && hi > 6.8);
  Alcotest.(check bool) "nontrivial width" true (hi -. lo > 0.1 && hi -. lo < 2.)

let test_bootstrap_ci_ordering_and_width () =
  let rng = Rng.create 6 in
  let sample = Array.init 100 (fun i -> float_of_int i) in
  let lo50, hi50 = Stats_tests.bootstrap_ci ~confidence:0.5 rng sample Stats.mean in
  let lo99, hi99 = Stats_tests.bootstrap_ci ~confidence:0.99 rng sample Stats.mean in
  Alcotest.(check bool) "lo <= hi" true (lo50 <= hi50 && lo99 <= hi99);
  Alcotest.(check bool) "wider at higher confidence" true
    (hi99 -. lo99 > hi50 -. lo50)

let test_bootstrap_custom_statistic () =
  let rng = Rng.create 7 in
  let sample = Array.init 200 (fun _ -> Rng.exponential rng 1.) in
  let lo, hi = Stats_tests.bootstrap_ci rng sample Stats.median in
  (* true median of Exp(1) = ln 2 *)
  Alcotest.(check bool) "covers ln 2" true (lo < log 2. && hi > log 2. *. 0.8)

let suite =
  [
    Alcotest.test_case "bootstrap mean CI" `Quick test_bootstrap_mean_ci_covers_truth;
    Alcotest.test_case "bootstrap widths" `Quick test_bootstrap_ci_ordering_and_width;
    Alcotest.test_case "bootstrap median" `Quick test_bootstrap_custom_statistic;
  ]
