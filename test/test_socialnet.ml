(* Tests for Socialnet: story invariants, dataset round-trips, the
   event queue, the cascade simulator's mechanics, distance metrics and
   density observation. *)

open Socialnet
open Numerics

let checkf tol = Alcotest.(check (float tol))

let vote user time = { Types.user; time }

let story_of id initiator votes =
  { Types.id; initiator; topic = 0; votes = Array.of_list votes }

(* --- Types --- *)

let test_vote_count_and_voters () =
  let s = story_of 0 3 [ vote 3 0.; vote 1 1.5; vote 2 2.5 ] in
  Alcotest.(check int) "count" 3 (Types.story_vote_count s);
  Alcotest.(check (array int)) "voters" [| 3; 1; 2 |] (Types.voters s)

let test_votes_before () =
  let s = story_of 0 3 [ vote 3 0.; vote 1 1.5; vote 2 2.5 ] in
  Alcotest.(check int) "none after 0.5 except initiator" 1
    (Array.length (Types.votes_before s 0.5));
  Alcotest.(check int) "two by 1.5" 2 (Array.length (Types.votes_before s 1.5));
  Alcotest.(check int) "all by 10" 3 (Array.length (Types.votes_before s 10.))

let test_check_story_valid () =
  Types.check_story (story_of 0 3 [ vote 3 0.; vote 1 1.5 ])

let expect_invalid f =
  try
    f ();
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_check_story_invalid () =
  expect_invalid (fun () ->
      Types.check_story (story_of 0 3 [ vote 1 0.; vote 3 1. ]));
  expect_invalid (fun () ->
      Types.check_story (story_of 0 3 [ vote 3 1.; vote 1 2. ]));
  expect_invalid (fun () ->
      Types.check_story (story_of 0 3 [ vote 3 0.; vote 2 3.; vote 1 1. ]));
  expect_invalid (fun () ->
      Types.check_story (story_of 0 3 [ vote 3 0.; vote 3 1. ]));
  expect_invalid (fun () -> Types.check_story (story_of 0 3 []));
  (* the earlier of the first unsorted vote and the first repeated
     voter is reported, the time order first at one index; voter ids
     far apart and negative ones are found like dense ones *)
  let message votes =
    match Types.check_story (story_of 0 3 votes) with
    | () -> "ok"
    | exception Invalid_argument m -> m
  in
  let far = 1 lsl 40 in
  List.iter
    (fun (expected, votes) ->
      Alcotest.(check string) expected expected (message votes))
    [
      ("votes must be sorted by time", [ vote 3 0.; vote 1 2.; vote 1 1. ]);
      ("duplicate voter", [ vote 3 0.; vote 1 1.; vote 1 2.; vote 2 1.5 ]);
      ("votes must be sorted by time", [ vote 3 0.; vote 1 2.; vote 2 1.; vote 1 3. ]);
      ("duplicate voter", [ vote 3 0.; vote far 1.; vote 2 2.; vote far 3. ]);
      ("ok", [ vote 3 0.; vote far 1.; vote (-far) 2.; vote 2 3. ]);
    ]

(* --- Event_queue --- *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  List.iter (fun (t, v) -> Event_queue.push q t v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  Alcotest.(check int) "size" 4 (Event_queue.size q);
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "z"; "a"; "b"; "c" ]
    (List.rev !popped);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_event_queue_peek () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "no peek when empty" true (Event_queue.peek_time q = None);
  Event_queue.push q 5. ();
  Event_queue.push q 2. ();
  Alcotest.(check (option (float 1e-12))) "peek min" (Some 2.)
    (Event_queue.peek_time q)

let test_event_queue_random_order () =
  (* heap pops sorted, cross-checked against explicit sorting *)
  let rng = Rng.create 99 in
  let q = Event_queue.create () in
  let times = Array.init 500 (fun _ -> Rng.float rng) in
  Array.iter (fun t -> Event_queue.push q t ()) times;
  let sorted = Array.copy times in
  Array.sort Float.compare sorted;
  Array.iter
    (fun expected ->
      match Event_queue.pop q with
      | Some (t, ()) -> checkf 1e-12 "sorted pop" expected t
      | None -> Alcotest.fail "queue exhausted early")
    sorted

(* --- Dataset --- *)

let sample_dataset () =
  let g = Osn_graph.Digraph.of_edges 5 [ (1, 0); (2, 0); (3, 1); (4, 2) ] in
  (* edges: u follows v; so 0's followers are 1 and 2 *)
  let s0 = story_of 0 0 [ vote 0 0.; vote 1 0.5; vote 3 2. ] in
  let s1 = story_of 1 2 [ vote 2 0.; vote 0 1. ] in
  Dataset.make ~follows:g ~influence:(Osn_graph.Digraph.reverse g) ~stories:[| s0; s1 |]

let test_dataset_basics () =
  let ds = sample_dataset () in
  Alcotest.(check int) "users" 5 (Dataset.n_users ds);
  Alcotest.(check int) "stories" 2 (Dataset.n_stories ds);
  Alcotest.(check int) "total votes" 5 (Dataset.total_votes ds)

let test_dataset_influence_orientation () =
  let ds = sample_dataset () in
  (* 1 follows 0, so influence must flow 0 -> 1 *)
  Alcotest.(check bool) "influence 0->1" true
    (Osn_graph.Digraph.has_edge (Dataset.influence ds) 0 1);
  Alcotest.(check bool) "no influence 1->0" false
    (Osn_graph.Digraph.has_edge (Dataset.influence ds) 1 0)

let test_dataset_vote_index () =
  let ds = sample_dataset () in
  Alcotest.(check (array int)) "user 0 voted both" [| 0; 1 |]
    (Dataset.stories_voted_by ds 0);
  Alcotest.(check (array int)) "user 3 voted s0" [| 0 |]
    (Dataset.stories_voted_by ds 3);
  Alcotest.(check (array int)) "user 4 voted none" [||]
    (Dataset.stories_voted_by ds 4)

let test_dataset_rejects_bad_voter () =
  let g = Osn_graph.Digraph.create 2 in
  let bad = story_of 0 0 [ vote 0 0.; vote 7 1. ] in
  expect_invalid (fun () ->
      ignore (Dataset.make ~follows:g ~influence:(Osn_graph.Digraph.reverse g) ~stories:[| bad |]))

let test_dataset_rejects_wrong_influence () =
  let g = Osn_graph.Digraph.of_edges 5 [ (1, 0); (2, 0); (3, 1); (4, 2) ] in
  let stories = [| story_of 0 0 [ vote 0 0. ] |] in
  let make influence = ignore (Dataset.make ~follows:g ~influence ~stories) in
  make (Osn_graph.Digraph.reverse g);
  (* the follow graph itself, and a graph with the reverse's degrees
     whose edges 1 -> 3 and 2 -> 4 are crossed *)
  expect_invalid (fun () -> make g);
  expect_invalid (fun () ->
      make (Osn_graph.Digraph.of_edges 5 [ (0, 1); (0, 2); (1, 4); (2, 3) ]));
  expect_invalid (fun () -> make (Osn_graph.Digraph.create 6));
  (* a symmetric graph is its own reverse *)
  let sym = Osn_graph.Digraph.of_edges 2 [ (0, 1); (1, 0) ] in
  ignore (Dataset.make ~follows:sym ~influence:sym ~stories)

let test_dataset_tsv_roundtrip () =
  let ds = sample_dataset () in
  let path = Filename.temp_file "dlosn" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset.save_tsv ds path;
      let ds' = Dataset.load_tsv path in
      Alcotest.(check int) "users" (Dataset.n_users ds) (Dataset.n_users ds');
      Alcotest.(check int) "stories" (Dataset.n_stories ds) (Dataset.n_stories ds');
      Alcotest.(check int) "votes" (Dataset.total_votes ds) (Dataset.total_votes ds');
      Alcotest.(check int) "edges"
        (Osn_graph.Digraph.n_edges (Dataset.follows ds))
        (Osn_graph.Digraph.n_edges (Dataset.follows ds'));
      let s = Dataset.story ds 0 and s' = Dataset.story ds' 0 in
      Alcotest.(check int) "initiator" s.Types.initiator s'.Types.initiator;
      checkf 1e-6 "vote time" s.Types.votes.(2).Types.time
        s'.Types.votes.(2).Types.time)

(* --- Cascade --- *)

let line_influence n =
  (* influence edges 0 -> 1 -> 2 ... : follower chains *)
  Osn_graph.Generators.line n

let test_cascade_initiator_always_votes () =
  let rng = Rng.create 1 in
  let params = { Cascade.default with front_page_rate = 0. } in
  let s =
    Cascade.simulate rng ~influence:(line_influence 5)
      ~affinity:(fun _ -> 0.) ~params ~initiator:2 ~story_id:0 ~topic:1 ()
  in
  Alcotest.(check int) "only initiator" 1 (Types.story_vote_count s);
  Alcotest.(check int) "initiator id" 2 s.Types.votes.(0).Types.user;
  checkf 1e-12 "at time zero" 0. s.Types.votes.(0).Types.time;
  Alcotest.(check int) "topic preserved" 1 s.Types.topic;
  Types.check_story s

let test_cascade_follower_chain () =
  (* p_follow = affinity = 1 on a line: the cascade must sweep the whole
     chain (duration permitting) *)
  let rng = Rng.create 2 in
  let params =
    {
      Cascade.default with
      p_follow = 1.;
      follow_delay_mean = 0.01;
      front_page_rate = 0.;
      promote_threshold = max_int;
    }
  in
  let s =
    Cascade.simulate rng ~influence:(line_influence 20)
      ~affinity:(fun _ -> 1.) ~params ~initiator:0 ~story_id:0 ~topic:0 ()
  in
  Alcotest.(check int) "everyone votes" 20 (Types.story_vote_count s);
  Types.check_story s

let test_cascade_zero_affinity_blocks () =
  let rng = Rng.create 3 in
  let params =
    { Cascade.default with p_follow = 1.; promote_threshold = max_int }
  in
  let s =
    Cascade.simulate rng ~influence:(line_influence 10)
      ~affinity:(fun u -> if u = 1 then 0. else 1.)
      ~params ~initiator:0 ~story_id:0 ~topic:0 ()
  in
  (* user 1 never votes, and the chain cannot route around it *)
  Alcotest.(check int) "blocked" 1 (Types.story_vote_count s)

let test_cascade_front_page_reaches_disconnected () =
  let rng = Rng.create 4 in
  let isolated = Osn_graph.Digraph.create 50 in
  let params =
    {
      Cascade.default with
      promote_threshold = 1;
      front_page_rate = 30.;
      front_page_decay = 0.3;
      duration = 20.;
    }
  in
  let s =
    Cascade.simulate rng ~influence:isolated
      ~affinity:(fun _ -> 1.) ~params ~initiator:0 ~story_id:0 ~topic:0 ()
  in
  Alcotest.(check bool) "front page recruits non-friends" true
    (Types.story_vote_count s > 10);
  Types.check_story s

let test_cascade_max_votes_cap () =
  let rng = Rng.create 5 in
  let params =
    {
      Cascade.default with
      promote_threshold = 1;
      front_page_rate = 1000.;
      max_votes = 7;
      duration = 50.;
    }
  in
  let s =
    Cascade.simulate rng ~influence:(Osn_graph.Digraph.create 100)
      ~affinity:(fun _ -> 1.) ~params ~initiator:0 ~story_id:0 ~topic:0 ()
  in
  Alcotest.(check int) "capped" 7 (Types.story_vote_count s)

let test_cascade_votes_sorted_and_unique () =
  let rng = Rng.create 6 in
  let g = Osn_graph.Generators.barabasi_albert (Rng.create 7) ~n:300 ~m:3 () in
  let params =
    { Cascade.default with promote_threshold = 5; front_page_rate = 20. }
  in
  let s =
    Cascade.simulate rng ~influence:(Osn_graph.Digraph.reverse g)
      ~affinity:(fun _ -> 0.5) ~params ~initiator:0 ~story_id:9 ~topic:2 ()
  in
  Types.check_story s;
  Alcotest.(check bool) "has spread" true (Types.story_vote_count s > 5)

let test_cascade_deterministic () =
  let run seed =
    let rng = Rng.create seed in
    let g = Osn_graph.Generators.barabasi_albert (Rng.create 7) ~n:200 ~m:3 () in
    let params =
      { Cascade.default with promote_threshold = 3; front_page_rate = 10. }
    in
    Cascade.simulate rng ~influence:(Osn_graph.Digraph.reverse g)
      ~affinity:(fun _ -> 0.5) ~params ~initiator:0 ~story_id:0 ~topic:0 ()
  in
  Alcotest.(check bool) "same seed same cascade" true (run 42 = run 42);
  Alcotest.(check bool) "different seed differs" true (run 42 <> run 43)

let test_cascade_burst_front_loads () =
  let rng = Rng.create 8 in
  let make burst =
    let params =
      {
        Cascade.default with
        promote_threshold = 1;
        front_page_rate = 200.;
        front_page_decay = 0.05;
        front_page_burst = burst;
        duration = 50.;
      }
    in
    Cascade.simulate rng ~influence:(Osn_graph.Digraph.create 20000)
      ~affinity:(fun _ -> 1.) ~params ~initiator:0 ~story_id:0 ~topic:0 ()
  in
  let early s =
    float_of_int (Array.length (Types.votes_before s 1.))
    /. float_of_int (Types.story_vote_count s)
  in
  let no_burst = early (make 0.) and with_burst = early (make 0.5) in
  Alcotest.(check bool) "burst increases first-hour share" true
    (with_burst > 2. *. no_burst)

(* --- Distance --- *)

let test_friendship_hops () =
  let ds = sample_dataset () in
  let s = Dataset.story ds 0 in
  (* initiator 0; influence: 0->1, 0->2, 1->3, 2->4 *)
  let hops = Distance.friendship_hops ds ~story:s in
  Alcotest.(check (array int)) "hops" [| -1; 1; 1; 2; 2 |] hops

let test_shared_interest_values () =
  let ds = sample_dataset () in
  (* C0 = {0, 1}, C2 = {1}; jaccard distance = 1 - 1/2 *)
  checkf 1e-12 "half overlap" 0.5 (Distance.shared_interest ds ~exclude:(-1) 0 2);
  (* identical singleton sets *)
  checkf 1e-12 "same set" 0.
    (Distance.shared_interest ds ~exclude:(-1) 2 2);
  (* no votes vs no votes *)
  checkf 1e-12 "both empty" 1. (Distance.shared_interest ds ~exclude:(-1) 4 4);
  (* exclusion removes story 1 from both sides: C0\{1} = {0}, C2\{1} = {} *)
  checkf 1e-12 "after exclusion" 1. (Distance.shared_interest ds ~exclude:1 0 2)

let test_shared_interest_symmetry () =
  let ds = sample_dataset () in
  for a = 0 to 4 do
    for b = 0 to 4 do
      checkf 1e-12 "symmetric"
        (Distance.shared_interest ds ~exclude:(-1) a b)
        (Distance.shared_interest ds ~exclude:(-1) b a)
    done
  done

let test_interest_groups_basics () =
  let ds = sample_dataset () in
  let s = Dataset.story ds 0 in
  let groups = Distance.interest_groups ~n_groups:3 ds ~story:s in
  Alcotest.(check int) "initiator excluded" (-1) groups.(0);
  (* user 4 has no history at all -> excluded *)
  Alcotest.(check int) "empty history excluded" (-1) groups.(4);
  (* users 1 and 3 voted only the story under study: once it is
     excluded their histories are empty too *)
  Alcotest.(check int) "story-only history excluded" (-1) groups.(1);
  Alcotest.(check int) "story-only history excluded" (-1) groups.(3);
  (* user 2 voted story 1 as well, so it gets a group label *)
  Alcotest.(check bool) "measurable user in range" true
    (groups.(2) >= 1 && groups.(2) <= 3)

(* --- Density --- *)

let test_density_observe () =
  let assignment = [| -1; 1; 1; 2; 2 |] in
  let s = story_of 0 0 [ vote 0 0.; vote 1 0.5; vote 3 2.5 ] in
  let obs =
    Density.observe s ~assignment ~max_distance:2 ~times:[| 1.; 3. |]
  in
  Alcotest.(check (array int)) "populations" [| 2; 2 |] obs.Density.population;
  (* distance 1: user 1 voted at 0.5 -> 50% at both times *)
  checkf 1e-9 "d1 t1" 50. (Density.at obs ~distance:1 ~time:1.);
  checkf 1e-9 "d1 t3" 50. (Density.at obs ~distance:1 ~time:3.);
  (* distance 2: user 3 voted at 2.5 -> 0 then 50 *)
  checkf 1e-9 "d2 t1" 0. (Density.at obs ~distance:2 ~time:1.);
  checkf 1e-9 "d2 t3" 50. (Density.at obs ~distance:2 ~time:3.)

let test_density_monotone_in_time () =
  let assignment = [| -1; 1; 1; 1; 1 |] in
  let s = story_of 0 0 [ vote 0 0.; vote 1 1.; vote 2 2.; vote 3 3. ] in
  let obs =
    Density.observe s ~assignment ~max_distance:1
      ~times:(Array.init 5 (fun i -> float_of_int i +. 0.5))
  in
  let series = Density.series_at_distance obs ~distance:1 in
  for i = 1 to Array.length series - 1 do
    Alcotest.(check bool) "non-decreasing" true (series.(i) >= series.(i - 1))
  done

let test_density_empty_group () =
  let assignment = [| 1; 1; -1; -1; -1 |] in
  let s = story_of 0 0 [ vote 0 0. ] in
  let obs = Density.observe s ~assignment ~max_distance:3 ~times:[| 1. |] in
  checkf 1e-9 "empty group density 0" 0. (Density.at obs ~distance:3 ~time:1.)

let test_density_distribution () =
  let assignment = [| -1; 1; 2; 2; 3 |] in
  let dist = Density.distance_distribution ~assignment ~max_distance:3 in
  let total = Array.fold_left (fun acc (_, f) -> acc +. f) 0. dist in
  checkf 1e-9 "fractions sum to 1" 1. total;
  let _, f2 = dist.(1) in
  checkf 1e-9 "distance 2 fraction" 0.5 f2

let test_density_profile_and_errors () =
  let assignment = [| -1; 1; 2; 2; 1 |] in
  let s = story_of 0 0 [ vote 0 0.; vote 1 0.5 ] in
  let obs = Density.observe s ~assignment ~max_distance:2 ~times:[| 1.; 2. |] in
  (try
     ignore (Density.at obs ~distance:9 ~time:1.);
     Alcotest.fail "expected Not_found"
   with Not_found -> ());
  try
    ignore (Density.at obs ~distance:1 ~time:9.);
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

(* --- Digg corpus (small scale) --- *)

let corpus = lazy (Digg.build ~scale:Digg.small ~seed:5 ())

let test_digg_shape () =
  let c = Lazy.force corpus in
  let ds = c.Digg.dataset in
  Alcotest.(check int) "users" 2000 (Dataset.n_users ds);
  Alcotest.(check int) "stories" 84 (Dataset.n_stories ds);
  Alcotest.(check int) "four rep stories" 4 (Array.length c.Digg.rep_ids);
  Alcotest.(check bool) "votes exist" true (Dataset.total_votes ds > 1000)

let test_digg_rep_ordering () =
  let c = Lazy.force corpus in
  let ds = c.Digg.dataset in
  let counts =
    Array.map
      (fun id -> Types.story_vote_count (Dataset.story ds id))
      c.Digg.rep_ids
  in
  (* s1 is the biggest story; s4 the smallest of the four *)
  Alcotest.(check bool) "s1 > s2" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "s2 > s4" true (counts.(1) > counts.(3))

let test_digg_determinism () =
  let a = Digg.build ~scale:Digg.small ~seed:77 () in
  let b = Digg.build ~scale:Digg.small ~seed:77 () in
  Alcotest.(check int) "same votes" (Dataset.total_votes a.Digg.dataset)
    (Dataset.total_votes b.Digg.dataset);
  let sa = Dataset.story a.Digg.dataset a.Digg.rep_ids.(0) in
  let sb = Dataset.story b.Digg.dataset b.Digg.rep_ids.(0) in
  Alcotest.(check bool) "same rep story" true (sa = sb)

let test_digg_affinity_range () =
  let c = Lazy.force corpus in
  for u = 0 to 199 do
    for topic = 0 to c.Digg.n_topics - 1 do
      let a = Digg.affinity c ~topic u in
      Alcotest.(check bool) "affinity in [0,1]" true (a >= 0. && a <= 1.)
    done
  done

(* The flat vote index and adjacency against what they replaced:
   per-user arrays sorted with [compare], a [Queue] BFS over the
   influence digraph, and the [Seq] filter and polymorphic [min]/[max]
   of the old grouping. *)
let queue_hops ds ~(story : Types.story) =
  let g = Dataset.influence ds and init = story.Types.initiator in
  let dist = Array.make (Dataset.n_users ds) (-1) in
  let q = Queue.create () in
  dist.(init) <- 0;
  Queue.add init q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Osn_graph.Digraph.iter_out g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
  done;
  Array.mapi (fun u d -> if u = init || d <= 0 then -1 else d) dist

let seq_groups ~n_groups ~grouping d =
  let observed = Array.of_seq (Seq.filter (fun x -> not (Float.is_nan x)) (Array.to_seq d)) in
  let group_of =
    match grouping with
    | Distance.Equal_width ->
      let lo = Array.fold_left Stdlib.min infinity observed
      and hi = Array.fold_left Stdlib.max neg_infinity observed in
      let width = if hi > lo then (hi -. lo) /. float_of_int n_groups else 1. in
      fun x ->
        let g = int_of_float ((x -. lo) /. width) in
        1 + Stdlib.max 0 (Stdlib.min (n_groups - 1) g)
    | Distance.Quantile ->
      let cuts =
        Array.init (n_groups - 1) (fun k ->
            Stats.quantile observed (float_of_int (k + 1) /. float_of_int n_groups))
      in
      fun x ->
        let rec scan k = if k >= n_groups - 1 || x <= cuts.(k) then k + 1 else scan (k + 1) in
        scan 0
  in
  Array.map (fun x -> if Float.is_nan x then -1 else group_of x) d

let test_flat_distances_match_references () =
  List.iter
    (fun seed ->
      let ds = (Digg.build ~scale:Digg.small ~seed ()).Digg.dataset in
      let voted = Array.make (Dataset.n_users ds) [] in
      Array.iter
        (fun (s : Types.story) ->
          Array.iter
            (fun (v : Types.vote) -> voted.(v.Types.user) <- s.Types.id :: voted.(v.Types.user))
            s.Types.votes)
        (Dataset.stories ds);
      Array.iteri
        (fun u ids ->
          let ids = Array.of_list ids in
          Array.sort compare ids;
          Alcotest.(check (array int)) "stories_voted_by" ids (Dataset.stories_voted_by ds u))
        voted;
      Array.iter
        (fun story ->
          Alcotest.(check (array int)) "friendship_hops" (queue_hops ds ~story)
            (Distance.friendship_hops ds ~story);
          let d = Distance.interest_distances ds ~story in
          List.iter
            (fun (n_groups, grouping) ->
              Alcotest.(check (array int)) "interest_groups"
                (seq_groups ~n_groups ~grouping d)
                (Distance.interest_groups ~n_groups ~grouping ds ~story))
            [ (5, Distance.Equal_width); (5, Distance.Quantile); (3, Distance.Quantile) ])
        (Dataset.stories ds))
    [ 1; 2; 3 ]

let test_digg_hop_distribution_peaks_in_middle () =
  let c = Lazy.force corpus in
  let ds = c.Digg.dataset in
  let s1 = Dataset.story ds c.Digg.rep_ids.(0) in
  let hops = Distance.friendship_hops ds ~story:s1 in
  let dist = Density.distance_distribution ~assignment:hops ~max_distance:10 in
  (* paper Fig 2: the mass concentrates at hops 2-5, not at hop 1 *)
  let frac d = snd dist.(d - 1) in
  let middle = frac 2 +. frac 3 +. frac 4 +. frac 5 in
  Alcotest.(check bool) "middle hops dominate" true (middle > 0.8);
  Alcotest.(check bool) "hop 1 is small" true (frac 1 < 0.2)

let suite =
  [
    Alcotest.test_case "vote count/voters" `Quick test_vote_count_and_voters;
    Alcotest.test_case "votes_before" `Quick test_votes_before;
    Alcotest.test_case "check_story ok" `Quick test_check_story_valid;
    Alcotest.test_case "check_story bad" `Quick test_check_story_invalid;
    Alcotest.test_case "event queue order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue peek" `Quick test_event_queue_peek;
    Alcotest.test_case "event queue random" `Quick test_event_queue_random_order;
    Alcotest.test_case "dataset basics" `Quick test_dataset_basics;
    Alcotest.test_case "influence orientation" `Quick test_dataset_influence_orientation;
    Alcotest.test_case "vote index" `Quick test_dataset_vote_index;
    Alcotest.test_case "rejects bad voter" `Quick test_dataset_rejects_bad_voter;
    Alcotest.test_case "tsv round-trip" `Quick test_dataset_tsv_roundtrip;
    Alcotest.test_case "cascade initiator" `Quick test_cascade_initiator_always_votes;
    Alcotest.test_case "cascade chain" `Quick test_cascade_follower_chain;
    Alcotest.test_case "cascade blocked" `Quick test_cascade_zero_affinity_blocks;
    Alcotest.test_case "cascade front page" `Quick test_cascade_front_page_reaches_disconnected;
    Alcotest.test_case "cascade cap" `Quick test_cascade_max_votes_cap;
    Alcotest.test_case "cascade invariants" `Quick test_cascade_votes_sorted_and_unique;
    Alcotest.test_case "cascade determinism" `Quick test_cascade_deterministic;
    Alcotest.test_case "cascade burst" `Quick test_cascade_burst_front_loads;
    Alcotest.test_case "friendship hops" `Quick test_friendship_hops;
    Alcotest.test_case "shared interest" `Quick test_shared_interest_values;
    Alcotest.test_case "interest symmetry" `Quick test_shared_interest_symmetry;
    Alcotest.test_case "interest groups" `Quick test_interest_groups_basics;
    Alcotest.test_case "flat distances = references" `Quick
      test_flat_distances_match_references;
    Alcotest.test_case "density observe" `Quick test_density_observe;
    Alcotest.test_case "density monotone" `Quick test_density_monotone_in_time;
    Alcotest.test_case "density empty group" `Quick test_density_empty_group;
    Alcotest.test_case "distance distribution" `Quick test_density_distribution;
    Alcotest.test_case "profile and errors" `Quick test_density_profile_and_errors;
    Alcotest.test_case "digg shape" `Slow test_digg_shape;
    Alcotest.test_case "digg rep ordering" `Slow test_digg_rep_ordering;
    Alcotest.test_case "digg determinism" `Slow test_digg_determinism;
    Alcotest.test_case "digg affinity range" `Slow test_digg_affinity_range;
    Alcotest.test_case "digg hop distribution" `Slow test_digg_hop_distribution_peaks_in_middle;
    Alcotest.test_case "rejects wrong influence" `Quick test_dataset_rejects_wrong_influence;
  ]
