(* Paper reproduction harness.

   Regenerates, from the synthetic Digg corpus, the data behind every
   figure and table in the paper's evaluation (Figs 2-7, Tables I-II)
   plus the ablations called out in DESIGN.md, and prints them.  Speed
   is measured by perfbench/, not here.

   Run with: dune exec bench/main.exe
   (set DLOSN_BENCH_SCALE=small for a quick pass, full for paper scale) *)

let scale_of_env () =
  match Sys.getenv_opt "DLOSN_BENCH_SCALE" with
  | Some "small" -> ("small", Socialnet.Digg.small)
  | Some "full" -> ("full", Socialnet.Digg.full)
  | _ -> ("medium", Socialnet.Digg.medium)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '-')

let fig_times = [| 1.; 2.; 3.; 4.; 5.; 6.; 8.; 10.; 15.; 20.; 30.; 40.; 50. |]

let print_fig2 ds rep_ids =
  section "Figure 2: distance distribution of the initiators' (in)direct followers";
  Format.printf "hop:      ";
  for d = 1 to 10 do
    Format.printf "%7d" d
  done;
  Format.printf "@.";
  Array.iteri
    (fun k id ->
      let story = Socialnet.Dataset.story ds id in
      let hops = Socialnet.Distance.friendship_hops ds ~story in
      let dist =
        Socialnet.Density.distance_distribution ~assignment:hops ~max_distance:10
      in
      Format.printf "story %d:  " (k + 1);
      Array.iter (fun (_, f) -> Format.printf "%7.3f" f) dist;
      Format.printf "@.")
    rep_ids;
  Format.printf
    "(paper: mass concentrated at hops 2-5, hop-3 bucket > 40%%, sharp drop beyond)@."

let observe_hops ds story max_distance times =
  let hops = Socialnet.Distance.friendship_hops ds ~story in
  Socialnet.Density.observe story ~assignment:hops ~max_distance ~times

let observe_interest ?(grouping = Socialnet.Distance.Equal_width) ds story times =
  let groups = Socialnet.Distance.interest_groups ~grouping ds ~story in
  Socialnet.Density.observe story ~assignment:groups ~max_distance:5 ~times

let print_fig3 ds rep_ids =
  section "Figure 3 a-d: density of influenced users over 50 h (friendship hops)";
  Array.iteri
    (fun k id ->
      let story = Socialnet.Dataset.story ds id in
      Format.printf "@.[%c] story s%d (%d votes)@."
        (Char.chr (Char.code 'a' + k))
        (k + 1)
        (Socialnet.Types.story_vote_count story);
      Format.printf "%a@." Socialnet.Density.pp
        (observe_hops ds story 5 fig_times))
    rep_ids;
  Format.printf
    "(paper: densities rise then stabilise; s1's hop-3 curve sits above \
     hop-2; popular stories stabilise sooner)@."

let print_fig4 ds rep_ids =
  section "Figure 4: s1 density vs distance, one curve per hour";
  let story = Socialnet.Dataset.story ds rep_ids.(0) in
  let obs = observe_hops ds story 5 fig_times in
  Format.printf "t \\ x ";
  Array.iter (fun d -> Format.printf "%8d" d) obs.Socialnet.Density.distances;
  Format.printf "@.";
  Array.iteri
    (fun it t ->
      Format.printf "%-6.0f" t;
      Array.iter
        (fun row -> Format.printf "%8.2f" row.(it))
        obs.Socialnet.Density.density;
      Format.printf "@.")
    obs.Socialnet.Density.times;
  (* the observation driving the decreasing r(t): shrinking increments *)
  let mean_profile it =
    let acc = ref 0. in
    Array.iter (fun row -> acc := !acc +. row.(it)) obs.Socialnet.Density.density;
    !acc /. float_of_int (Array.length obs.Socialnet.Density.density)
  in
  Format.printf "@.mean density increments (hour windows): ";
  for it = 1 to 5 do
    Format.printf "%.2f " (mean_profile it -. mean_profile (it - 1))
  done;
  Format.printf "@.(paper: increments shrink with t, motivating decreasing r(t))@."

let print_fig5 ds rep_ids =
  section "Figure 5 a-d: density of influenced users over 50 h (shared interests)";
  Array.iteri
    (fun k id ->
      let story = Socialnet.Dataset.story ds id in
      Format.printf "@.[%c] story s%d@." (Char.chr (Char.code 'a' + k)) (k + 1);
      Format.printf "%a@." Socialnet.Density.pp
        (observe_interest ds story fig_times))
    rep_ids;
  Format.printf
    "(paper: density decreases as interest distance grows; our corpus \
     reproduces the trend for most groups, with group-4/5 anomalies on \
     the broad-appeal story, cf. the paper's own distance-5 miss in \
     Table II)@."

let print_fig6 () =
  section "Figure 6: growth rate r(t) = 1.4 e^{-1.5 (t-1)} + 0.25";
  Format.printf "t:    ";
  let ts = [| 1.; 1.5; 2.; 2.5; 3.; 3.5; 4.; 4.5; 5. |] in
  Array.iter (fun t -> Format.printf "%7.2f" t) ts;
  Format.printf "@.r(t): ";
  Array.iter
    (fun t -> Format.printf "%7.3f" (Dl.Growth.eval Dl.Growth.paper_hops t))
    ts;
  Format.printf "@."

let insample_config =
  { Dl.Fit.default_config with fit_times = [| 2.; 3.; 4.; 5.; 6. |]; starts = 6 }

let run_pipeline ?(params = Dl.Pipeline.Paper) ds story metric =
  Dl.Pipeline.run ~params ds ~story ~metric

let print_fig7 what label exp =
  section
    (Printf.sprintf
       "Figure 7%s: predicted (P) vs actual (A) densities of s1 (%s)" what
       label);
  let obs = exp.Dl.Pipeline.observation in
  let distances = obs.Socialnet.Density.distances in
  Format.printf "        ";
  Array.iter (fun d -> Format.printf "    x=%d" d) distances;
  Format.printf "@.";
  Array.iteri
    (fun it t ->
      Format.printf "t=%.0f  A " t;
      Array.iter
        (fun row -> Format.printf "%7.2f" row.(it))
        obs.Socialnet.Density.density;
      Format.printf "@.";
      if it > 0 then begin
        Format.printf "      P ";
        Array.iter
          (fun x ->
            Format.printf "%7.2f"
              (Dl.Model.predict exp.Dl.Pipeline.solution
                 ~x:(float_of_int x) ~t))
          distances;
        Format.printf "@."
      end
      else Format.printf "      P (t=1 row is phi, the initial condition)@.")
    obs.Socialnet.Density.times

let print_table label exp =
  section label;
  Format.printf "params: %a@." Dl.Params.pp exp.Dl.Pipeline.params;
  (match exp.Dl.Pipeline.fit_error with
  | Some e -> Format.printf "training error: %.4f@." e
  | None -> ());
  Format.printf "%a@." Dl.Accuracy.pp_table exp.Dl.Pipeline.table

let print_ablation_baselines exp =
  section "Ablation A: DL vs baselines and related-work models (s1, hops)";
  let obs = exp.Dl.Pipeline.observation in
  let fit_times = [| 2.; 3.; 4. |] in
  let show name p =
    let table = Dl.Pipeline.baseline_table exp ~baseline:p in
    Format.printf "  %-26s overall accuracy %6.2f%%@." name
      (100. *. table.Dl.Accuracy.overall_average)
  in
  Format.printf "  %-26s overall accuracy %6.2f%%@." "DL (in-sample calibrated)"
    (100. *. exp.Dl.Pipeline.table.Dl.Accuracy.overall_average);
  show "persistence" (Dl.Baselines.persistence obs);
  show "linear trend (fit t<=4)" (Dl.Baselines.linear_trend obs ~fit_times);
  show "logistic/distance (t<=4)"
    (Dl.Baselines.logistic_per_distance obs ~fit_times);
  let si = Dl.Epidemic.fit ~fit_times (Numerics.Rng.create 21) obs in
  show
    (Printf.sprintf "SI epidemic (err %.3f)" si.Dl.Epidemic.training_error)
    (Dl.Epidemic.predictor si.Dl.Epidemic.params ~obs);
  Format.printf
    "  (the per-distance logistic has 2 free parameters per distance vs \
     DL's 5 global@.   ones; DL buys a single spatially coupled model \
     that also interpolates between@.   distances — see EXPERIMENTS.md)@."

let print_ablation_network ds exp =
  section
    "Ablation C: 1-D DL vs node-level DL on the graph Laplacian (s1, hops)";
  let story = exp.Dl.Pipeline.story in
  let assignment = exp.Dl.Pipeline.assignment in
  let obs = exp.Dl.Pipeline.observation in
  let lap = Osn_graph.Laplacian.undirected_laplacian (Socialnet.Dataset.follows ds) in
  let i0 =
    Dl.Network_model.indicator_initial story
      ~n_users:(Socialnet.Dataset.n_users ds) ~at:1.
  in
  let t0 = Unix.gettimeofday () in
  let fit =
    Dl.Network_model.fit_grid ~dt:0.25 ~laplacian:lap ~assignment ~obs ~i0
      ~d_grid:[| 0.005; 0.02; 0.08 |]
      ~r_grid:[| 0.2; 0.45; 0.8 |]
      ~k:100. ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let p = fit.Dl.Network_model.params in
  let times = exp.Dl.Pipeline.table.Dl.Accuracy.times in
  let snapshots = Dl.Network_model.solve ~dt:0.25 ~laplacian:lap p ~i0 ~times in
  let distances = obs.Socialnet.Density.distances in
  let max_distance = distances.(Array.length distances - 1) in
  (* group averages per recorded snapshot, keyed by time *)
  let groups_at =
    Array.map
      (fun (t, field) ->
        (t, Dl.Network_model.group_average ~assignment ~max_distance field))
      snapshots
  in
  let predict ~x ~t =
    let _, groups =
      Array.to_list groups_at
      |> List.find (fun (t', _) -> Float.abs (t' -. t) < 1e-9)
    in
    groups.(x - 1)
  in
  let table =
    Dl.Accuracy.table ~predict
      ~actual:(fun ~x ~t -> Socialnet.Density.at obs ~distance:x ~time:t)
      ~distances ~times
  in
  Format.printf
    "  network DL (grid-fit in %.1f s): d = %g, r = %a, training error \
     %.3f@."
    elapsed p.Dl.Network_model.d Dl.Growth.pp p.Dl.Network_model.r
    fit.Dl.Network_model.training_error;
  Format.printf "  overall accuracy: network DL %6.2f%%  vs  1-D DL %6.2f%%@."
    (100. *. table.Dl.Accuracy.overall_average)
    (100. *. exp.Dl.Pipeline.table.Dl.Accuracy.overall_average);
  Format.printf
    "  (the node-level model diffuses along real ties only; it cannot \
     express the@.   front-page channel, which is exactly what the 1-D \
     abstraction's random-walk@.   term captures)@."

let print_joint ds s1 hops_exp interest_exp =
  section
    "Extension 2 (ours): joint hop x interest DL — keep BOTH spatial axes";
  let hop_assignment = Socialnet.Distance.friendship_hops ds ~story:s1 in
  let interest_assignment = Socialnet.Distance.interest_groups ds ~story:s1 in
  let times = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let obs =
    Dl.Joint.observe s1 ~hop_assignment ~interest_assignment ~hop_max:5
      ~group_max:5 ~times
  in
  let populated =
    Array.fold_left
      (fun acc row ->
        acc + Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 row)
      0 obs.Dl.Joint.population
  in
  Format.printf "  populated (hop, interest) cells: %d of 25@." populated;
  let t0 = Unix.gettimeofday () in
  let r_candidates =
    [|
      Dl.Growth.Constant 0.3; Dl.Growth.Constant 0.6;
      Dl.Growth.Exp_decay { a = 1.0; b = 1.0; c = 0.15 };
      Dl.Growth.Exp_decay { a = 1.5; b = 1.0; c = 0.15 };
      Dl.Growth.Exp_decay { a = 1.5; b = 2.0; c = 0.3 };
      Dl.Growth.paper_hops;
    |]
  in
  let p, err =
    Dl.Joint.fit_grid obs
      ~dh_grid:[| 0.001; 0.01; 0.05 |]
      ~di_grid:[| 0.001; 0.01; 0.05 |]
      ~r_grid:r_candidates ~k:40.
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.printf
    "  grid fit (%.1f s): dh = %g, di = %g, %a, K = 40 (training error \
     %.3f)@."
    elapsed p.Dl.Joint.dh p.Dl.Joint.di Dl.Growth.pp p.Dl.Joint.r err;
  let sol = Dl.Joint.solve p obs ~times:[| 2.; 3.; 4.; 5.; 6. |] in
  Format.printf
    "  joint-model accuracy over populated cells: %6.2f%%   (1-D hops: \
     %6.2f%%, 1-D interests: %6.2f%%)@."
    (100. *. Dl.Joint.accuracy sol obs)
    (100. *. hops_exp.Dl.Pipeline.table.Dl.Accuracy.overall_average)
    (100. *. interest_exp.Dl.Pipeline.table.Dl.Accuracy.overall_average);
  Format.printf
    "  (the joint model must explain 20+ heterogeneous cells with one \
     surface; the@.   1-D projections average that heterogeneity away \
     first — easier targets)@."

let print_sensitivity exp =
  section "Sensitivity (ours): how fragile are the calibrated parameters?";
  let f =
    Dl.Sensitivity.accuracy_objective ~phi:exp.Dl.Pipeline.phi
      ~obs:exp.Dl.Pipeline.observation
      ~times:exp.Dl.Pipeline.table.Dl.Accuracy.times
  in
  let p = exp.Dl.Pipeline.params in
  let reference = f p in
  Format.printf "  reference overall accuracy: %.2f%%@." (100. *. reference);
  Format.printf "  local elasticities (d ln accuracy / d ln param):@.";
  List.iter
    (fun axis ->
      let e = Dl.Sensitivity.elasticity f p axis in
      if not (Float.is_nan e) then
        Format.printf "    %-4s %+.4f@." (Dl.Sensitivity.axis_name axis) e)
    [ Dl.Sensitivity.D; Dl.Sensitivity.K; Dl.Sensitivity.R_a;
      Dl.Sensitivity.R_b; Dl.Sensitivity.R_c ];
  let rows = Dl.Sensitivity.one_at_a_time f p in
  let worst = ref rows.(0) in
  Array.iter
    (fun (r : Dl.Sensitivity.row) ->
      if r.Dl.Sensitivity.delta < !worst.Dl.Sensitivity.delta then worst := r)
    rows;
  Format.printf
    "  most damaging single perturbation: %s x %g -> accuracy %.2f%% \
     (%+.2f pts)@."
    (Dl.Sensitivity.axis_name !worst.Dl.Sensitivity.axis)
    !worst.Dl.Sensitivity.factor
    (100. *. !worst.Dl.Sensitivity.value)
    (100. *. !worst.Dl.Sensitivity.delta)

let print_wavefront exp =
  section "Wavefront analysis (ours): how fast does influence travel outward?";
  let params = exp.Dl.Pipeline.params in
  let phi = exp.Dl.Pipeline.phi in
  let times = Array.init 10 (fun i -> 1.5 +. (0.5 *. float_of_int i)) in
  let sol = Dl.Model.solve params ~phi ~times in
  let threshold = 0.5 *. Dl.Initial.eval phi params.Dl.Params.l in
  let crossings = Dl.Wavefront.track sol ~threshold in
  Format.printf "  instantaneous Fisher speed 2 sqrt(d r(t)) [hops/h]: ";
  List.iter
    (fun t ->
      Format.printf "t=%g: %.3f  " t (Dl.Wavefront.instantaneous_speed params ~t))
    [ 1.; 2.; 4.; 6. ];
  Format.printf "@.";
  (match Dl.Wavefront.empirical_speed crossings with
  | Some speed ->
    Format.printf
      "  empirical front speed (level %.2f tracked over t = 1.5..6): %.3f \
       hops/h@."
      threshold speed
  | None ->
    Format.printf
      "  front (level %.2f) never detaches from the boundary on this \
       story@." threshold);
  Format.printf
    "  (with the tiny fitted d the front creeps: influence reaches far \
     hops via the@.   front-page channel, not graph diffusion — \
     consistent with Ablation A)@."

let print_batch ds =
  section
    "Table III (ours): DL accuracy distribution across the corpus's top \
     stories";
  let top12 = Dl.Batch.top_stories ds ~n:12 in
  let paper_summary =
    Dl.Batch.evaluate ~mode:Dl.Batch.Paper_params ds ~stories:top12
  in
  Format.printf "published constants, top 12 stories:@.  %a@."
    Dl.Batch.pp_summary paper_summary;
  let top6 = Dl.Batch.top_stories ds ~n:6 in
  let insample_summary =
    Dl.Batch.evaluate ~mode:(Dl.Batch.In_sample 31) ds ~stories:top6
  in
  Format.printf "in-sample calibration, top 6 stories:@.  %a@."
    Dl.Batch.pp_summary insample_summary;
  (match
     Dl.Batch.mean_accuracy_ci (Numerics.Rng.create 61) insample_summary
   with
  | Some (lo, hi) ->
    Format.printf "  95%% bootstrap CI on the mean: [%.1f%%, %.1f%%]@."
      (100. *. lo) (100. *. hi)
  | None -> ());
  Format.printf "  per story (calibrated): ";
  Array.iter
    (fun (r : Dl.Batch.story_result) ->
      match r.Dl.Batch.skipped with
      | None ->
        Format.printf "#%d(%dv)=%.0f%% " r.Dl.Batch.story_id r.Dl.Batch.votes
          (100. *. r.Dl.Batch.overall)
      | Some reason ->
        Format.printf "#%d(skip: %s) " r.Dl.Batch.story_id reason)
    insample_summary.Dl.Batch.results;
  Format.printf "@."

let print_ablation_phi ds s1 =
  section "Ablation D: phi construction — C2 cubic spline vs shape-preserving PCHIP";
  List.iter
    (fun (name, construction) ->
      let exp =
        Dl.Pipeline.run
          ~params:
            (Dl.Pipeline.Auto
               { rng = Numerics.Rng.create 41; config = insample_config })
          ~construction ds ~story:s1 ~metric:Dl.Pipeline.hops
      in
      let report =
        Dl.Initial.check exp.Dl.Pipeline.phi ~params:exp.Dl.Pipeline.params
      in
      Format.printf
        "  %-14s overall accuracy %6.2f%%   (phi non-negative: %b, \
         lower solution: %b)@."
        name
        (100. *. exp.Dl.Pipeline.table.Dl.Accuracy.overall_average)
        report.Dl.Initial.non_negative report.Dl.Initial.lower_solution)
    [ ("cubic spline", `Cubic_spline); ("PCHIP", `Pchip) ];
  Format.printf
    "  (the paper's C2 spline can dip below zero between steep \
     observations and is@.   floored; PCHIP is positive by construction \
     at the price of C1 smoothness)@."

let print_horizon ds s1 =
  section "Forecast horizon (ours): accuracy vs training window and look-ahead";
  let _, obs =
    Dl.Pipeline.observe ds ~story:s1 ~metric:Dl.Pipeline.hops
      ~times:(Array.init 30 (fun i -> float_of_int (i + 1)))
  in
  let points =
    Dl.Horizon.curve (Numerics.Rng.create 43) obs
      ~train_untils:[| 3.; 6.; 12. |]
      ~horizons:[| 1.; 3.; 6.; 12. |]
  in
  Format.printf "%a@." Dl.Horizon.pp points

let print_transfer ds rep_ids =
  section
    "Transfer (ours): parameters fitted on one story applied to another \
     (the paper's 'similar information in the future' claim)";
  let stories = Array.map (Socialnet.Dataset.story ds) rep_ids in
  let m = Dl.Transfer.cross_apply (Numerics.Rng.create 47) ds ~stories in
  Format.printf "%a@." Dl.Transfer.pp m;
  Format.printf "  diagonal advantage (own-story tuning buys): %+.2f pts@."
    (100. *. Dl.Transfer.diagonal_advantage m)

let print_size_forecast ds =
  section "Cascade-size forecasting (ours): predicted vs actual votes";
  (* pick stories across the size distribution so correlation is
     informative (the top-N all have similar sizes) *)
  let ranked = Dl.Batch.top_stories ds ~n:(Socialnet.Dataset.n_stories ds) in
  let stories =
    Array.of_list
      (List.filter_map
         (fun rank ->
           if rank < Array.length ranked then Some ranked.(rank) else None)
         [ 0; 2; 5; 10; 20; 40; 80; 160; 320 ])
  in
  let report label forecasts =
    Format.printf "%s:@.%a" label Dl.Size_forecast.pp forecasts;
    if Array.length forecasts >= 2 then
      Format.printf
        "  correlation(predicted, actual) = %.3f;  mean relative error \
         = %.2f@."
        (Dl.Size_forecast.correlation forecasts)
        (Dl.Size_forecast.mean_relative_error forecasts)
  in
  report "at 12 h (default calibration)"
    (Dl.Size_forecast.evaluate ~mode:(Dl.Batch.In_sample 53) ~at:12. ds
       ~stories);
  (* long horizon: a persistent growth floor c saturates everything at
     K; constrain c towards 0 so the story can go stale *)
  let stale_config =
    {
      Dl.Fit.default_config with
      fit_times = [| 2.; 3.; 4.; 5.; 6. |];
      c_bounds = (0., 0.03);
    }
  in
  report "at 50 h (growth floor constrained to c <= 0.03)"
    (Dl.Size_forecast.evaluate ~mode:(Dl.Batch.In_sample 53)
       ~config:stale_config ~at:50. ds ~stories);
  Format.printf
    "  (a fitted growth floor c > 0 keeps every group growing to K, so \
     unconstrained@.   DL over-predicts far horizons — the flip side of \
     the paper's decreasing r(t))@."

let print_temporal ds rep_ids =
  section "Temporal texture (supports Fig 3's reading)";
  Array.iteri
    (fun k id ->
      let story = Socialnet.Dataset.story ds id in
      let half = Socialnet.Temporal.time_to_fraction story ~fraction:0.5 in
      let sat = Socialnet.Temporal.saturation_time story in
      Format.printf
        "  s%d: %5d votes; 50%% reached at %5.1f h; 98%% (saturation) at \
         %5.1f h@."
        (k + 1)
        (Socialnet.Types.story_vote_count story)
        half sat)
    rep_ids;
  Format.printf
    "  (paper: popular stories stabilise sooner — s1 ~10 h vs s2 ~20 h)@."

let print_channel_decomposition corpus =
  section
    "Channel decomposition (ours): which propagation process reaches \
     which hop?";
  (* re-run an s1-like cascade with channel tracing on the corpus graph *)
  let ds = corpus.Socialnet.Digg.dataset in
  let influence = Socialnet.Dataset.influence ds in
  let s1 = Socialnet.Dataset.story ds corpus.Socialnet.Digg.rep_ids.(0) in
  let initiator = s1.Socialnet.Types.initiator in
  let topic = s1.Socialnet.Types.topic in
  let params =
    {
      Socialnet.Cascade.p_follow = 0.35;
      initiator_boost = 1.5;
      follow_delay_mean = 0.6;
      promote_threshold = 1;
      front_page_rate = 0.15 *. float_of_int (Socialnet.Types.story_vote_count s1) *. 0.22;
      front_page_decay = 0.22;
      front_page_burst = 0.25;
      duration = 50.;
      max_votes = max_int;
    }
  in
  let story, channels =
    Socialnet.Cascade.simulate_traced (Numerics.Rng.create 67) ~influence
      ~affinity:(Socialnet.Digg.affinity corpus ~topic)
      ~params ~initiator ~story_id:9999 ~topic ()
  in
  let hops = Socialnet.Distance.friendship_hops ds ~story in
  let max_hop = 5 in
  let follower = Array.make max_hop 0 and front = Array.make max_hop 0 in
  Array.iteri
    (fun i (v : Socialnet.Types.vote) ->
      let x = hops.(v.Socialnet.Types.user) in
      if x >= 1 && x <= max_hop then begin
        match channels.(i) with
        | Socialnet.Cascade.Follower -> follower.(x - 1) <- follower.(x - 1) + 1
        | Socialnet.Cascade.Front_page -> front.(x - 1) <- front.(x - 1) + 1
        | Socialnet.Cascade.Seed -> ()
      end)
    story.Socialnet.Types.votes;
  Format.printf "  hop   follower-channel   front-page   front-page share@.";
  for x = 1 to max_hop do
    let f = follower.(x - 1) and a = front.(x - 1) in
    let total = f + a in
    Format.printf "  %-5d %10d %12d %14s@." x f a
      (if total = 0 then "-"
       else Printf.sprintf "%.0f%%" (100. *. float_of_int a /. float_of_int total))
  done;
  Format.printf
    "  (the random-arrival share grows monotonically with hop distance, \
     as the@.   DL diffusion term assumes; on this corpus the follower \
     channel still carries@.   the bulk at every hop — the hop-3 > \
     hop-2 inversion comes from affinity-@.   weighted exposure success \
     plus the front page, i.e. from who accepts, not@.   only from who \
     is reached)@."

let print_initiator_influence ds =
  section "Initiator influence (ours): network position vs cascade size";
  let follows = Socialnet.Dataset.follows ds in
  let pr = Osn_graph.Centrality.pagerank follows in
  let stories = Socialnet.Dataset.stories ds in
  let sizes =
    Array.map
      (fun (s : Socialnet.Types.story) ->
        float_of_int (Socialnet.Types.story_vote_count s))
      stories
  in
  let followers =
    Array.map
      (fun (s : Socialnet.Types.story) ->
        float_of_int (Osn_graph.Digraph.in_degree follows s.Socialnet.Types.initiator))
      stories
  in
  let ranks =
    Array.map
      (fun (s : Socialnet.Types.story) -> pr.(s.Socialnet.Types.initiator))
      stories
  in
  Format.printf
    "  corr(initiator followers, votes) = %.3f;  corr(initiator \
     PageRank, votes) = %.3f@."
    (Numerics.Stats.pearson followers sizes)
    (Numerics.Stats.pearson ranks sizes);
  Format.printf
    "  (front-page promotion decouples final size from the initiator's \
     position,@.   echoing the paper's point that links are not the \
     only channel)@."

let print_parameter_uncertainty exp =
  section "Parameter uncertainty (ours): residual-bootstrap CIs on the s1 fit";
  let obs = exp.Dl.Pipeline.observation in
  let fast =
    { insample_config with Dl.Fit.starts = 2; solver_nx = 31; solver_dt = 0.08 }
  in
  let u =
    Dl.Fit.bootstrap ~config:fast ~resamples:12 (Numerics.Rng.create 71) obs
  in
  let pr name (lo, hi) = Format.printf "  %-6s 90%% CI [%.4g, %.4g]@." name lo hi in
  pr "d" u.Dl.Fit.d_ci;
  pr "K" u.Dl.Fit.k_ci;
  pr "r(1)" u.Dl.Fit.r1_ci;
  Format.printf
    "  (d's interval hugs zero — the data barely constrains the \
     diffusion rate,@.   consistent with the sensitivity analysis)@."

let print_seed_robustness scale =
  section
    "Seed robustness (ours): Table I overall accuracy across corpus seeds";
  let overalls =
    Array.of_list
      (List.filter_map
         (fun seed ->
           let corpus = Socialnet.Digg.build ~scale ~seed () in
           let ds = corpus.Socialnet.Digg.dataset in
           let s1 =
             Socialnet.Dataset.story ds corpus.Socialnet.Digg.rep_ids.(0)
           in
           match
             Dl.Pipeline.run
               ~params:
                 (Dl.Pipeline.Auto
                    {
                      rng = Numerics.Rng.create (seed * 13);
                      config = insample_config;
                    })
               ds ~story:s1 ~metric:Dl.Pipeline.hops
           with
           | exp ->
             let v = exp.Dl.Pipeline.table.Dl.Accuracy.overall_average in
             Format.printf "  seed %-3d  %.2f%%@." seed (100. *. v);
             Some v
           | exception _ ->
             Format.printf "  seed %-3d  (skipped)@." seed;
             None)
         [ 7; 8; 9; 10; 11 ])
  in
  if Array.length overalls >= 2 then
    Format.printf "  mean %.2f%%  std %.2f pts@."
      (100. *. Numerics.Stats.mean overalls)
      (100. *. Numerics.Stats.std overalls)

let print_future_work_twitter () =
  section
    "Future work (paper Sec. V): the DL pipeline on a Twitter-like network";
  let tw = Socialnet.Twitter.build ~n_users:10_000 ~n_background:150 ~seed:11 () in
  let ds = tw.Socialnet.Twitter.dataset in
  Format.printf "  corpus: %a@." Socialnet.Dataset.pp ds;
  let t1 = Socialnet.Dataset.story ds tw.Socialnet.Twitter.rep_ids.(0) in
  Format.printf "  celebrity tweet: %a@." Socialnet.Types.pp_story t1;
  let hops = Socialnet.Distance.friendship_hops ds ~story:t1 in
  let obs =
    Socialnet.Density.observe t1 ~assignment:hops ~max_distance:5
      ~times:[| 50. |]
  in
  Format.printf "  hop densities at 50 h: ";
  Array.iteri
    (fun i row ->
      if obs.Socialnet.Density.population.(i) > 0 then
        Format.printf "x=%d: %.2f  " (i + 1) row.(0))
    obs.Socialnet.Density.density;
  Format.printf
    "@.  (no front page: density decays with hops — no s1-style \
     inversion)@.";
  match
    Dl.Pipeline.run
      ~params:
        (Dl.Pipeline.Auto
           { rng = Numerics.Rng.create 23; config = insample_config })
      ds ~story:t1 ~metric:Dl.Pipeline.hops
  with
  | exp ->
    Format.printf "  DL calibrated on the tweet: %a@." Dl.Params.pp
      exp.Dl.Pipeline.params;
    Format.printf "  overall accuracy (t = 2..6): %.2f%%@."
      (100. *. exp.Dl.Pipeline.table.Dl.Accuracy.overall_average)
  | exception Invalid_argument msg ->
    Format.printf "  pipeline skipped: %s@." msg

let print_ablation_schemes exp =
  section "Ablation B: numerical schemes (s1, hops, identical parameters)";
  let phi = exp.Dl.Pipeline.phi and params = exp.Dl.Pipeline.params in
  let times = [| 2.; 3.; 4.; 5.; 6. |] in
  let solve scheme = Dl.Model.solve ~scheme params ~phi ~times in
  let reference = solve Dl.Model.Strang in
  List.iter
    (fun (name, scheme) ->
      let t0 = Unix.gettimeofday () in
      let sol = solve scheme in
      let elapsed = Unix.gettimeofday () -. t0 in
      let max_diff = ref 0. in
      Array.iter
        (fun t ->
          Array.iter
            (fun x ->
              let a = Dl.Model.predict sol ~x ~t
              and b = Dl.Model.predict reference ~x ~t in
              max_diff := Float.max !max_diff (Float.abs (a -. b)))
            (Numerics.Vec.linspace params.Dl.Params.l params.Dl.Params.big_l 21))
        times;
      Format.printf
        "  %-16s solve %6.1f ms   max |diff vs Strang| %.2e@." name
        (1000. *. elapsed) !max_diff)
    [ ("FTCS", Dl.Model.Ftcs); ("Crank-Nicolson", Dl.Model.Crank_nicolson);
      ("Strang", Dl.Model.Strang) ]

let print_extension exp =
  section "Extension (paper future work): growth rate r(x, t) decreasing in distance";
  let phi = exp.Dl.Pipeline.phi and params = exp.Dl.Pipeline.params in
  let times = exp.Dl.Pipeline.table.Dl.Accuracy.times in
  let distances = exp.Dl.Pipeline.observation.Socialnet.Density.distances in
  let actual ~x ~t =
    Socialnet.Density.at exp.Dl.Pipeline.observation ~distance:x ~time:t
  in
  let accuracy sol =
    (Dl.Accuracy.table
       ~predict:(fun ~x ~t -> Dl.Model.predict sol ~x:(float_of_int x) ~t)
       ~actual ~distances ~times)
      .Dl.Accuracy.overall_average
  in
  let base = Dl.Model.solve params ~phi ~times in
  Format.printf "  r(t) only:            overall accuracy %6.2f%%@."
    (100. *. accuracy base);
  List.iter
    (fun damp ->
      let sol =
        Dl.Model.solve_extended params
          ~diffusion:(fun _ -> params.Dl.Params.d)
          ~growth:(fun ~x ~t ->
            Dl.Growth.eval params.Dl.Params.r t
            /. (1. +. (damp *. (x -. params.Dl.Params.l))))
          ~phi ~times
      in
      Format.printf "  r(x,t), damping %.2f:  overall accuracy %6.2f%%@." damp
        (100. *. accuracy sol))
    [ 0.05; 0.1; 0.2 ]

let () =
  let scale_name, scale = scale_of_env () in
  Format.printf
    "dlosn reproduction harness — corpus scale: %s (set \
     DLOSN_BENCH_SCALE to change)@."
    scale_name;
  let t0 = Unix.gettimeofday () in
  let corpus = Socialnet.Digg.build ~scale ~seed:7 () in
  let ds = corpus.Socialnet.Digg.dataset in
  Format.printf "corpus: %a  (built in %.1f s)@." Socialnet.Dataset.pp ds
    (Unix.gettimeofday () -. t0);
  let rep_ids = corpus.Socialnet.Digg.rep_ids in
  let s1 = Socialnet.Dataset.story ds rep_ids.(0) in

  section "Corpus characterisation (cf. paper Sec. III.A)";
  Format.printf "%a@." Socialnet.Corpus_stats.pp (Socialnet.Corpus_stats.compute ds);

  print_fig2 ds rep_ids;
  print_fig3 ds rep_ids;
  print_fig4 ds rep_ids;
  print_fig5 ds rep_ids;
  print_fig6 ();

  (* Fig 7a / Table I: hops *)
  let hops_paper = run_pipeline ds s1 Dl.Pipeline.hops in
  let hops_insample =
    run_pipeline
      ~params:
        (Dl.Pipeline.Auto
           { rng = Numerics.Rng.create 13; config = insample_config })
      ds s1 Dl.Pipeline.hops
  in
  print_fig7 "a (friendship hops, in-sample calibration)" "hops" hops_insample;
  print_table
    "Table I analogue: prediction accuracy, friendship hops, published \
     paper parameters"
    hops_paper;
  print_table
    "Table I analogue: prediction accuracy, friendship hops, calibrated \
     like the paper (tuned on t = 2..6)"
    hops_insample;
  let hops_oos =
    run_pipeline
      ~params:
        (Dl.Pipeline.Auto
           { rng = Numerics.Rng.create 14; config = Dl.Fit.default_config })
      ds s1 Dl.Pipeline.hops
  in
  print_table
    "Table I extra (ours): out-of-sample protocol (calibrated on t = 2..4 \
     only, judged on t = 2..6)"
    hops_oos;

  (* Fig 7b / Table II: shared interests *)
  let interest_paper = run_pipeline ds s1 Dl.Pipeline.interest in
  let interest_insample =
    run_pipeline
      ~params:
        (Dl.Pipeline.Auto
           { rng = Numerics.Rng.create 15; config = insample_config })
      ds s1 Dl.Pipeline.interest
  in
  print_fig7 "b (shared interests, in-sample calibration)" "interest"
    interest_insample;
  print_table
    "Table II analogue: prediction accuracy, shared interests, published \
     paper parameters"
    interest_paper;
  print_table
    "Table II analogue: prediction accuracy, shared interests, calibrated \
     like the paper"
    interest_insample;

  print_ablation_baselines hops_insample;
  print_ablation_schemes hops_insample;
  print_ablation_network ds hops_insample;
  print_ablation_phi ds s1;
  print_extension hops_insample;
  print_joint ds s1 hops_insample interest_insample;
  print_sensitivity hops_insample;
  print_wavefront hops_insample;
  print_horizon ds s1;
  print_transfer ds rep_ids;
  print_size_forecast ds;
  print_temporal ds rep_ids;
  print_batch ds;
  print_channel_decomposition corpus;
  print_initiator_influence ds;
  print_parameter_uncertainty hops_insample;
  if scale_name <> "full" then print_seed_robustness scale;
  print_future_work_twitter ()
