(* Tests for the extension modules: wavefront analysis, the SI
   epidemic comparator, batch evaluation, temporal analytics,
   centrality and the Twitter-like corpus. *)

open Numerics

let checkf tol = Alcotest.(check (float tol))

(* --- Wavefront --- *)

let test_fisher_speed_formula () =
  checkf 1e-12 "2 sqrt(rd)" 0.2 (Dl.Wavefront.fisher_speed ~d:0.01 ~r:1.);
  checkf 1e-12 "zero d" 0. (Dl.Wavefront.fisher_speed ~d:0. ~r:1.);
  try
    ignore (Dl.Wavefront.fisher_speed ~d:(-1.) ~r:1.);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_instantaneous_speed_decays () =
  let p = Dl.Params.paper_hops in
  let s1 = Dl.Wavefront.instantaneous_speed p ~t:1. in
  let s5 = Dl.Wavefront.instantaneous_speed p ~t:5. in
  Alcotest.(check bool) "slows as r decays" true (s5 < s1);
  checkf 1e-9 "matches formula"
    (2. *. sqrt (0.01 *. Dl.Growth.eval Dl.Growth.paper_hops 1.))
    s1

let test_expected_position () =
  (* constant rate: position = x0 + c (t - 1), clamped at L *)
  let p = Dl.Params.make ~d:0.04 ~k:25. ~r:(Dl.Growth.Constant 1.) ~l:1. ~big_l:20. in
  let c = Dl.Wavefront.fisher_speed ~d:0.04 ~r:1. in
  checkf 1e-6 "linear motion" (2. +. (3. *. c))
    (Dl.Wavefront.expected_position p ~x0:2. ~t:4.);
  checkf 1e-9 "clamped at L" 20.
    (Dl.Wavefront.expected_position p ~x0:19.9 ~t:50.)

let test_empirical_front_speed_matches_fisher () =
  (* Fisher's equation on a long domain: the tracked front should move
     at roughly 2 sqrt(rd) once developed. *)
  let d = 0.5 and r = 1. in
  let p = Dl.Params.make ~d ~k:1. ~r:(Dl.Growth.Constant r) ~l:0. ~big_l:60. in
  let phi =
    (* steep initial step near the left edge, built from observations *)
    Dl.Initial.of_observations
      ~xs:[| 0.; 1.; 2.; 3.; 60. |]
      ~densities:[| 1.; 1.; 0.5; 0.0001; 0.0001 |]
  in
  (* Model.solve insists times >= 1, which suits a developed front *)
  let times = Array.init 15 (fun i -> 6. +. float_of_int i) in
  let sol = Dl.Model.solve ~nx:301 ~dt:5e-3 p ~phi ~times in
  let crossings = Dl.Wavefront.track sol ~threshold:0.5 in
  match Dl.Wavefront.empirical_speed crossings with
  | None -> Alcotest.fail "no front detected"
  | Some speed ->
    let fisher = Dl.Wavefront.fisher_speed ~d ~r in
    Alcotest.(check bool)
      (Printf.sprintf "measured %.3f vs fisher %.3f" speed fisher)
      true
      (Float.abs (speed -. fisher) /. fisher < 0.15)

let test_track_none_when_below_threshold () =
  let p = Dl.Params.paper_hops in
  let phi =
    Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
      ~densities:[| 0.2; 0.1; 0.05; 0.04; 0.03; 0.02 |]
  in
  let sol = Dl.Model.solve p ~phi ~times:[| 2. |] in
  let crossings = Dl.Wavefront.track sol ~threshold:50. in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "no crossing" true (c.Dl.Wavefront.position = None))
    crossings

(* --- Epidemic --- *)

let test_epidemic_validation () =
  let expect_invalid p =
    try
      Dl.Epidemic.validate p;
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid
    { Dl.Epidemic.beta_local = -1.; beta_cross = 0.; mixing_decay = 0.5 };
  expect_invalid
    { Dl.Epidemic.beta_local = 0.; beta_cross = 0.; mixing_decay = 0. };
  expect_invalid
    { Dl.Epidemic.beta_local = 0.; beta_cross = 0.; mixing_decay = 1.5 }

let test_epidemic_single_group_is_logistic () =
  (* one group, no coupling: dI/dt = beta I (1 - I), the logistic *)
  let p =
    { Dl.Epidemic.beta_local = 0.7; beta_cross = 0.; mixing_decay = 1. }
  in
  let result = Dl.Epidemic.simulate p ~i0:[| 5. |] ~times:[| 3.; 6. |] in
  List.iteri
    (fun i t ->
      let expected = 100. *. Ode.logistic ~r:0.7 ~k:1. ~n0:0.05 (t -. 1.) in
      checkf 1e-3 "logistic growth" expected result.(0).(i))
    [ 3.; 6. ]

let test_epidemic_saturates_at_100 () =
  let p =
    { Dl.Epidemic.beta_local = 2.; beta_cross = 0.5; mixing_decay = 0.5 }
  in
  let result =
    Dl.Epidemic.simulate p ~i0:[| 10.; 1.; 0.5 |] ~times:[| 30. |]
  in
  Array.iter
    (fun row ->
      Alcotest.(check bool) "saturated" true (row.(0) > 99. && row.(0) <= 100.0001))
    result

let test_epidemic_coupling_spreads () =
  (* a group starting at zero only grows through cross-group mixing *)
  let coupled =
    { Dl.Epidemic.beta_local = 0.5; beta_cross = 0.3; mixing_decay = 0.7 }
  in
  let isolated = { coupled with Dl.Epidemic.beta_cross = 0. } in
  let run p = (Dl.Epidemic.simulate p ~i0:[| 20.; 0. |] ~times:[| 5. |]).(1).(0) in
  Alcotest.(check bool) "coupled group grows" true (run coupled > 1.);
  checkf 1e-9 "isolated group stays zero" 0. (run isolated)

let test_epidemic_fit_recovers () =
  (* generate data with known rates, fit, check prediction quality *)
  let truth =
    { Dl.Epidemic.beta_local = 0.6; beta_cross = 0.08; mixing_decay = 0.6 }
  in
  let i0 = [| 8.; 4.; 2.; 1. |] in
  let times = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let ground = Dl.Epidemic.simulate truth ~i0 ~times in
  let obs =
    {
      Socialnet.Density.distances = [| 1; 2; 3; 4 |];
      times;
      density = ground;
      population = [| 100; 100; 100; 100 |];
    }
  in
  let result = Dl.Epidemic.fit (Rng.create 4) obs in
  Alcotest.(check bool) "training error small" true
    (result.Dl.Epidemic.training_error < 0.02);
  let predictor = Dl.Epidemic.predictor result.Dl.Epidemic.params ~obs in
  let predicted = predictor ~x:2 ~t:6. in
  let actual = ground.(1).(5) in
  Alcotest.(check bool) "extrapolates" true
    (Float.abs (predicted -. actual) /. actual < 0.1)

(* --- Batch --- *)

let corpus = lazy (Socialnet.Digg.build ~scale:Socialnet.Digg.small ~seed:5 ())

let test_top_stories () =
  let c = Lazy.force corpus in
  let top = Dl.Batch.top_stories c.Socialnet.Digg.dataset ~n:5 in
  Alcotest.(check int) "five stories" 5 (Array.length top);
  for i = 0 to 3 do
    Alcotest.(check bool) "descending votes" true
      (Socialnet.Types.story_vote_count top.(i)
       >= Socialnet.Types.story_vote_count top.(i + 1))
  done

let test_batch_evaluate () =
  let c = Lazy.force corpus in
  let ds = c.Socialnet.Digg.dataset in
  let stories = Dl.Batch.top_stories ds ~n:6 in
  let summary =
    Dl.Batch.evaluate ~mode:Dl.Batch.Paper_params ds ~stories
  in
  Alcotest.(check int) "all stories accounted" 6
    (summary.Dl.Batch.evaluated + summary.Dl.Batch.skipped);
  Alcotest.(check bool) "some evaluated" true (summary.Dl.Batch.evaluated >= 3);
  Alcotest.(check bool) "mean in [0,1]" true
    (summary.Dl.Batch.mean_overall >= 0. && summary.Dl.Batch.mean_overall <= 1.);
  Alcotest.(check bool) "worst <= median <= best" true
    (summary.Dl.Batch.worst <= summary.Dl.Batch.median_overall
     && summary.Dl.Batch.median_overall <= summary.Dl.Batch.best)

(* --- Temporal --- *)

let vote user time = { Socialnet.Types.user; time }

let sample_story =
  {
    Socialnet.Types.id = 0;
    initiator = 0;
    topic = 0;
    votes =
      Array.of_list
        [ vote 0 0.; vote 1 0.2; vote 2 0.9; vote 3 1.5; vote 4 4.5 ];
  }

let test_votes_per_hour () =
  let counts = Socialnet.Temporal.votes_per_hour sample_story ~duration:5. in
  Alcotest.(check (array int)) "buckets" [| 3; 1; 0; 0; 1 |] counts

let test_votes_per_hour_truncates () =
  let counts = Socialnet.Temporal.votes_per_hour sample_story ~duration:2. in
  Alcotest.(check (array int)) "beyond-duration dropped" [| 3; 1 |] counts

let test_time_to_fraction () =
  checkf 1e-12 "60% of 5 = 3rd vote" 0.9
    (Socialnet.Temporal.time_to_fraction sample_story ~fraction:0.6);
  checkf 1e-12 "all votes" 4.5
    (Socialnet.Temporal.time_to_fraction sample_story ~fraction:1.)

let test_saturation_and_peak () =
  checkf 1e-12 "saturation = last vote for small stories" 4.5
    (Socialnet.Temporal.saturation_time sample_story)

let test_inter_arrival () =
  let stats = Socialnet.Temporal.inter_arrival_stats sample_story in
  checkf 1e-9 "mean gap" (4.5 /. 4.) stats.Socialnet.Temporal.mean;
  checkf 1e-9 "max gap" 3. stats.Socialnet.Temporal.max

let test_spread_speed_rank () =
  let slow =
    {
      sample_story with
      Socialnet.Types.id = 1;
      votes = Array.of_list [ vote 0 0.; vote 1 8.; vote 2 9. ];
    }
  in
  let ranked = Socialnet.Temporal.spread_speed_rank [| slow; sample_story |] in
  let first_id, _ = ranked.(0) in
  Alcotest.(check int) "fast story first" 0 first_id

(* --- Centrality --- *)

let test_in_degree_ranking () =
  let g = Osn_graph.Digraph.of_edges 4 [ (1, 0); (2, 0); (3, 0); (0, 1) ] in
  let ranking = Osn_graph.Centrality.in_degree_ranking g in
  Alcotest.(check int) "most-followed first" 0 ranking.(0)

let test_pagerank_uniform_on_ring () =
  let g = Osn_graph.Generators.ring 6 in
  let pr = Osn_graph.Centrality.pagerank g in
  Array.iter (fun s -> checkf 1e-6 "symmetric ranks" (1. /. 6.) s) pr;
  checkf 1e-9 "sums to 1" 1. (Array.fold_left ( +. ) 0. pr)

let test_pagerank_hub_wins () =
  (* everyone points at node 0 *)
  let g =
    Osn_graph.Digraph.of_edges 5 [ (1, 0); (2, 0); (3, 0); (4, 0) ]
  in
  let pr = Osn_graph.Centrality.pagerank g in
  for v = 1 to 4 do
    Alcotest.(check bool) "hub dominates" true (pr.(0) > pr.(v))
  done;
  checkf 1e-9 "sums to 1" 1. (Array.fold_left ( +. ) 0. pr)

let test_pagerank_dangling_mass () =
  (* 0 -> 1, 1 dangles; ranks must still sum to 1 *)
  let g = Osn_graph.Digraph.of_edges 2 [ (0, 1) ] in
  let pr = Osn_graph.Centrality.pagerank g in
  checkf 1e-9 "mass conserved" 1. (Array.fold_left ( +. ) 0. pr);
  Alcotest.(check bool) "linked node ranks higher" true (pr.(1) > pr.(0))

(* --- Twitter corpus --- *)

let test_twitter_build () =
  let c = Socialnet.Twitter.build ~n_users:2_000 ~n_background:40 ~seed:3 () in
  let ds = c.Socialnet.Twitter.dataset in
  Alcotest.(check int) "users" 2_000 (Socialnet.Dataset.n_users ds);
  Alcotest.(check int) "stories" 44 (Socialnet.Dataset.n_stories ds);
  Alcotest.(check int) "four reps" 4 (Array.length c.Socialnet.Twitter.rep_ids);
  (* Twitter-like: low reciprocity *)
  Alcotest.(check bool) "low reciprocity" true
    (Osn_graph.Metrics.reciprocity (Socialnet.Dataset.follows ds) < 0.25)

let test_twitter_density_hugs_graph () =
  (* without a front page, density must decay with hop distance for the
     celebrity tweet *)
  let c = Socialnet.Twitter.build ~n_users:2_000 ~n_background:40 ~seed:3 () in
  let ds = c.Socialnet.Twitter.dataset in
  let t1 = Socialnet.Dataset.story ds c.Socialnet.Twitter.rep_ids.(0) in
  let hops = Socialnet.Distance.friendship_hops ds ~story:t1 in
  let obs =
    Socialnet.Density.observe t1 ~assignment:hops ~max_distance:4
      ~times:[| 50. |]
  in
  let d1 = obs.Socialnet.Density.density.(0).(0) in
  let d3 = obs.Socialnet.Density.density.(2).(0) in
  Alcotest.(check bool) "hop 1 much denser than hop 3" true (d1 > 2. *. d3)

let suite =
  [
    Alcotest.test_case "fisher speed" `Quick test_fisher_speed_formula;
    Alcotest.test_case "speed decays" `Quick test_instantaneous_speed_decays;
    Alcotest.test_case "expected position" `Quick test_expected_position;
    Alcotest.test_case "front speed vs fisher" `Slow test_empirical_front_speed_matches_fisher;
    Alcotest.test_case "no crossing" `Quick test_track_none_when_below_threshold;
    Alcotest.test_case "epidemic validation" `Quick test_epidemic_validation;
    Alcotest.test_case "epidemic logistic" `Quick test_epidemic_single_group_is_logistic;
    Alcotest.test_case "epidemic saturation" `Quick test_epidemic_saturates_at_100;
    Alcotest.test_case "epidemic coupling" `Quick test_epidemic_coupling_spreads;
    Alcotest.test_case "epidemic fit" `Slow test_epidemic_fit_recovers;
    Alcotest.test_case "top stories" `Slow test_top_stories;
    Alcotest.test_case "batch evaluate" `Slow test_batch_evaluate;
    Alcotest.test_case "votes per hour" `Quick test_votes_per_hour;
    Alcotest.test_case "duration truncation" `Quick test_votes_per_hour_truncates;
    Alcotest.test_case "time to fraction" `Quick test_time_to_fraction;
    Alcotest.test_case "saturation/peak" `Quick test_saturation_and_peak;
    Alcotest.test_case "inter-arrival" `Quick test_inter_arrival;
    Alcotest.test_case "spread speed rank" `Quick test_spread_speed_rank;
    Alcotest.test_case "in-degree ranking" `Quick test_in_degree_ranking;
    Alcotest.test_case "pagerank ring" `Quick test_pagerank_uniform_on_ring;
    Alcotest.test_case "pagerank hub" `Quick test_pagerank_hub_wins;
    Alcotest.test_case "pagerank dangling" `Quick test_pagerank_dangling_mass;
    Alcotest.test_case "twitter build" `Slow test_twitter_build;
    Alcotest.test_case "twitter locality" `Slow test_twitter_density_hugs_graph;
  ]

(* --- late additions: visibility gating and decaying-rate wavefront --- *)

let test_cascade_visibility_gates_exposure () =
  (* visibility 0 for odd users: they can never vote *)
  let rng = Rng.create 31 in
  let g = Osn_graph.Generators.complete 30 in
  let params =
    {
      Socialnet.Cascade.default with
      p_follow = 1.;
      promote_threshold = 1;
      front_page_rate = 50.;
      duration = 20.;
    }
  in
  let story =
    Socialnet.Cascade.simulate rng ~influence:g
      ~affinity:(fun _ -> 1.)
      ~visibility:(fun u -> if u mod 2 = 1 then 0. else 1.)
      ~params ~initiator:0 ~story_id:0 ~topic:0 ()
  in
  Array.iter
    (fun (v : Socialnet.Types.vote) ->
      Alcotest.(check bool) "only even users vote" true
        (v.Socialnet.Types.user mod 2 = 0))
    story.Socialnet.Types.votes;
  Alcotest.(check bool) "visible users did vote" true
    (Socialnet.Types.story_vote_count story > 5)

let test_traced_channels_consistent () =
  let rng = Rng.create 32 in
  let g = Osn_graph.Generators.star 40 in
  let params =
    {
      Socialnet.Cascade.default with
      p_follow = 0.8;
      promote_threshold = 3;
      front_page_rate = 10.;
      duration = 30.;
    }
  in
  let story, channels =
    Socialnet.Cascade.simulate_traced rng ~influence:g
      ~affinity:(fun _ -> 0.8)
      ~params ~initiator:0 ~story_id:0 ~topic:0 ()
  in
  Alcotest.(check int) "one channel per vote"
    (Socialnet.Types.story_vote_count story)
    (Array.length channels);
  Alcotest.(check bool) "first vote is the seed" true
    (channels.(0) = Socialnet.Cascade.Seed);
  Array.iteri
    (fun i c ->
      if i > 0 then
        Alcotest.(check bool) "later votes are not seeds" true
          (c <> Socialnet.Cascade.Seed))
    channels

let test_wavefront_expected_position_decaying_rate () =
  (* with the closed-form integral checked against quadrature *)
  let p = Dl.Params.paper_hops in
  let speed t = Dl.Wavefront.instantaneous_speed p ~t in
  let numeric = Numerics.Quadrature.simpson speed ~a:1. ~b:4. ~n:200 in
  let checkf tol = Alcotest.(check (float tol)) in
  checkf 1e-6 "integrated speed" (1. +. numeric)
    (Dl.Wavefront.expected_position p ~x0:1. ~t:4.)

let late_suite =
  [
    Alcotest.test_case "cascade visibility" `Quick test_cascade_visibility_gates_exposure;
    Alcotest.test_case "traced channels" `Quick test_traced_channels_consistent;
    Alcotest.test_case "wavefront decaying rate" `Quick test_wavefront_expected_position_decaying_rate;
  ]

let suite = suite @ late_suite
