(* Reproduction gate: the Table I/II analogues reported in EXPERIMENTS.md,
   recomputed on the medium synthetic corpus (seed 7) for the first
   representative story s1.  The published-constant rows involve no
   search, so they are pinned to a hundredth of a percentage point; the
   calibrated rows go through a seeded Nelder--Mead fit and are pinned to
   half a point, which still catches any change to the science while
   leaving room for a deliberate, documented change to the optimizer.
   Over rng seeds 101-119 the three calibrated rows span 89.56-89.58,
   85.90-87.97 and 81.23-81.25 %, so the pins are not seed luck.

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
  check_pct ~tol:0.5 "Table I, calibrated in-sample" 89.58
    (overall_pct ~params:(auto 13 insample_config) Dl.Pipeline.hops)

let test_table1_out_of_sample () =
  check_pct ~tol:0.5 "Table I, calibrated out-of-sample" 88.22
    (overall_pct ~params:(auto 14 Dl.Fit.default_config) Dl.Pipeline.hops)

let test_table2_insample () =
  check_pct ~tol:0.5 "Table II, calibrated in-sample" 81.25
    (overall_pct ~params:(auto 15 insample_config) Dl.Pipeline.interest)

(* --- calibration gate ---

   The search must find each story's basin, not just some fit.  The
   items are perfbench's calibrate workload (perfbench/w_calibrate.ml):
   the first six of the corpus's 24 top stories with two distance groups
   under both metrics, each under both metrics and both fit windows, in
   that order (item k = 0 .. 23).  Item k fits at rng seeds 1000 k + s,
   s = 1 .. 3.  Each item's median training error must be at or below
   its ceiling: the median over s = 1 .. 10 of the 4-restart random
   search this calibration replaced, rounded down in the sixth decimal.
   No fit may be worse than that search's worst fit over those 240. *)

let gate_ceilings =
  [|
    (56, "hops", "t2-4", 0.124043);
    (56, "hops", "t2-6", 0.163691);
    (56, "interest", "t2-4", 0.283001);
    (56, "interest", "t2-6", 0.295331);
    (105, "hops", "t2-4", 0.388429);
    (105, "hops", "t2-6", 0.379550);
    (105, "interest", "t2-4", 0.384199);
    (105, "interest", "t2-6", 0.410336);
    (345, "hops", "t2-4", 0.162873);
    (345, "hops", "t2-6", 0.177652);
    (345, "interest", "t2-4", 0.337408);
    (345, "interest", "t2-6", 0.365161);
    (400, "hops", "t2-4", 0.101995);
    (400, "hops", "t2-6", 0.110062);
    (400, "interest", "t2-4", 0.217101);
    (400, "interest", "t2-6", 0.239876);
    (263, "hops", "t2-4", 0.382599);
    (263, "hops", "t2-6", 0.427714);
    (263, "interest", "t2-4", 0.161405);
    (263, "interest", "t2-6", 0.189709);
    (396, "hops", "t2-4", 0.326364);
    (396, "hops", "t2-6", 0.284326);
    (396, "interest", "t2-4", 0.291335);
    (396, "interest", "t2-6", 0.347696);
  |]

let gate_worst = 0.429067

let test_calibration_gate () =
  let ds, _ = Lazy.force corpus in
  let metrics = [ ("hops", Dl.Pipeline.hops); ("interest", Dl.Pipeline.interest) ] in
  let windows = [ ("t2-4", [| 2.; 3.; 4. |]); ("t2-6", [| 2.; 3.; 4.; 5.; 6. |]) ] in
  let valid story (_, metric) =
    match Dl.Pipeline.prepare ds ~story ~metric with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  let stories =
    Array.fold_left
      (fun acc story ->
        if List.length acc < 6 && List.for_all (valid story) metrics then story :: acc
        else acc)
      [] (Dl.Batch.top_stories ds ~n:24)
    |> List.rev
  in
  let items =
    List.concat_map
      (fun story ->
        List.concat_map
          (fun metric -> List.map (fun window -> (story, metric, window)) windows)
          metrics)
      stories
    |> Array.of_list
  in
  Alcotest.(check int) "items" (Array.length gate_ceilings) (Array.length items);
  let pool = Parallel.Pool.create ~jobs:2 () in
  let worst = ref 0. and above = ref [] in
  Array.iteri
    (fun k (story, (metric_name, metric), (window, fit_times)) ->
      let id, m, w, ceiling = gate_ceilings.(k) in
      let label = Printf.sprintf "story %d %s %s" id m w in
      Alcotest.(check string) "item" label
        (Printf.sprintf "story %d %s %s" story.Socialnet.Types.id metric_name window);
      let pre = Dl.Pipeline.prepare ds ~story ~metric in
      let errors =
        Array.init 3 (fun s ->
            let r =
              Dl.Fit.fit
                ~config:{ Dl.Fit.default_config with fit_times }
                ~pool ~on_fit:ignore ~phi:pre.Dl.Pipeline.pr_phi
                (Numerics.Rng.create ((1000 * k) + s + 1))
                pre.Dl.Pipeline.pr_observation
            in
            r.Dl.Fit.training_error)
      in
      Array.iter (fun e -> worst := Float.max !worst e) errors;
      Array.sort Float.compare errors;
      if not (errors.(1) <= ceiling) then
        above := Printf.sprintf "%s: median %.6f > %.6f" label errors.(1) ceiling :: !above)
    items;
  if !above <> [] then
    Alcotest.failf "median training error above its ceiling: %s"
      (String.concat "; " (List.rev !above));
  if not (!worst <= gate_worst) then
    Alcotest.failf "worst fit %.6f > %.6f" !worst gate_worst

let suite =
  [
    Alcotest.test_case "table I published constants" `Quick test_table1_published;
    Alcotest.test_case "table II published constants" `Quick test_table2_published;
    Alcotest.test_case "table I calibrated in-sample" `Quick test_table1_insample;
    Alcotest.test_case "table I calibrated out-of-sample" `Quick
      test_table1_out_of_sample;
    Alcotest.test_case "table II calibrated in-sample" `Quick test_table2_insample;
    Alcotest.test_case "calibration gate" `Slow test_calibration_gate;
  ]
