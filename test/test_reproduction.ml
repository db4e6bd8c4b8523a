(* Reproduction gate: the Table I/II analogues reported in EXPERIMENTS.md,
   recomputed on the medium synthetic corpus (seed 7) for the first
   representative story s1.  The published-constant rows involve no
   search, so they are pinned to a hundredth of a percentage point; the
   calibrated rows go through a seeded Nelder--Mead fit and are pinned to
   half a point, which still catches any change to the science while
   leaving room for a deliberate, documented change to the optimizer.

   EXPERIMENTS.md numbers come from bench/main.ml's Table I/II section;
   the configurations and RNG seeds below are the ones it uses. *)

let corpus =
  lazy
    (let c = Socialnet.Digg.build ~scale:Socialnet.Digg.medium ~seed:7 () in
     let ds = c.Socialnet.Digg.dataset in
     (ds, Socialnet.Dataset.story ds c.Socialnet.Digg.rep_ids.(0)))

(* bench/main.ml's [insample_config]: calibrated on the t = 2..6 window
   it is then judged on, like the paper's hand-tuning *)
let insample_config =
  { Dl.Fit.default_config with fit_times = [| 2.; 3.; 4.; 5.; 6. |]; starts = 6 }

let overall_pct ?(params = Dl.Pipeline.Paper) metric =
  let ds, s1 = Lazy.force corpus in
  let exp = Dl.Pipeline.run ~params ds ~story:s1 ~metric in
  100. *. exp.Dl.Pipeline.table.Dl.Accuracy.overall_average

let auto seed config =
  Dl.Pipeline.Auto { rng = Numerics.Rng.create seed; config }

let check_pct ~tol name expected got =
  if Float.abs (got -. expected) > tol then
    Alcotest.failf "%s: overall accuracy %.4f%%, EXPERIMENTS.md has %.2f%% (± %g)"
      name got expected tol

let test_table1_published () =
  check_pct ~tol:0.01 "Table I, published constants" 83.86
    (overall_pct Dl.Pipeline.hops)

let test_table2_published () =
  check_pct ~tol:0.01 "Table II, published constants" 54.05
    (overall_pct Dl.Pipeline.interest)

let test_table1_insample () =
  check_pct ~tol:0.5 "Table I, calibrated in-sample" 89.34
    (overall_pct ~params:(auto 13 insample_config) Dl.Pipeline.hops)

let test_table1_out_of_sample () =
  check_pct ~tol:0.5 "Table I, calibrated out-of-sample" 82.30
    (overall_pct ~params:(auto 14 Dl.Fit.default_config) Dl.Pipeline.hops)

let test_table2_insample () =
  check_pct ~tol:0.5 "Table II, calibrated in-sample" 81.18
    (overall_pct ~params:(auto 15 insample_config) Dl.Pipeline.interest)

let suite =
  [
    Alcotest.test_case "table I published constants" `Quick test_table1_published;
    Alcotest.test_case "table II published constants" `Quick test_table2_published;
    Alcotest.test_case "table I calibrated in-sample" `Quick test_table1_insample;
    Alcotest.test_case "table I calibrated out-of-sample" `Quick
      test_table1_out_of_sample;
    Alcotest.test_case "table II calibrated in-sample" `Quick test_table2_insample;
  ]
