(* Parallel.Pool: chunking edge cases, exception propagation, and the
   determinism contract — jobs=1 and jobs=4 must produce bit-identical
   results for Fit.fit and Batch.evaluate. *)

open Numerics
module Pool = Parallel.Pool

let pool4 = Pool.create ~jobs:4 ()

(* --- pool unit tests --- *)

let test_zero_items () =
  Pool.parallel_for pool4 ~n:0 (fun _ -> Alcotest.fail "body ran on n = 0");
  Alcotest.(check (array int)) "map on empty" [||]
    (Pool.parallel_map pool4 (fun x -> x) [||])

let test_negative_n () =
  Pool.parallel_for pool4 ~n:(-3) (fun _ -> Alcotest.fail "body ran on n < 0")

let test_fewer_items_than_workers () =
  let xs = [| 10; 20; 30 |] in
  Alcotest.(check (array int)) "3 items, 4 workers" [| 20; 40; 60 |]
    (Pool.parallel_map pool4 (fun x -> 2 * x) xs);
  (* exactly one item *)
  Alcotest.(check (array int)) "1 item, 4 workers" [| 42 |]
    (Pool.parallel_map pool4 (fun x -> x + 1) [| 41 |])

let test_order_preserved () =
  let n = 103 in
  (* a deliberately non-divisible size so blocks are uneven *)
  let xs = Array.init n (fun i -> i) in
  let expect = Array.map (fun i -> i * i) xs in
  Alcotest.(check (array int)) "jobs=1" expect
    (Pool.parallel_map Pool.sequential (fun i -> i * i) xs);
  Alcotest.(check (array int)) "jobs=4" expect
    (Pool.parallel_map pool4 (fun i -> i * i) xs)

let test_parallel_for_covers_every_index () =
  let n = 57 in
  let hit = Array.make n 0 in
  Pool.parallel_for pool4 ~n (fun i -> hit.(i) <- hit.(i) + 1);
  Alcotest.(check (array int)) "each index exactly once" (Array.make n 1) hit

let test_exception_reraised () =
  let boom i = Failure (Printf.sprintf "boom-%d" i) in
  let f i = if i = 10 || i = 37 then raise (boom i) else i in
  let check_raises pool =
    match Pool.parallel_map pool f (Array.init 50 (fun i -> i)) with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure msg ->
      (* deterministic choice: the smallest failing index wins, on any
         pool size *)
      Alcotest.(check string) "smallest failing index" "boom-10" msg
  in
  check_raises Pool.sequential;
  check_raises pool4

let test_create_validates () =
  (try
     ignore (Pool.create ~jobs:0 ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "sequential has one worker" 1 (Pool.jobs Pool.sequential)

(* --- equivalence: bit-identical results at jobs=1 vs jobs=4 --- *)

let float_bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits name a b =
  Alcotest.(check bool) name true (float_bits_equal a b)

let growth_equal a b =
  match (a, b) with
  | Dl.Growth.Constant x, Dl.Growth.Constant y -> float_bits_equal x y
  | ( Dl.Growth.Exp_decay { a = a1; b = b1; c = c1 },
      Dl.Growth.Exp_decay { a = a2; b = b2; c = c2 } ) ->
    float_bits_equal a1 a2 && float_bits_equal b1 b2 && float_bits_equal c1 c2
  | _ -> false

let params_equal (p : Dl.Params.t) (q : Dl.Params.t) =
  float_bits_equal p.Dl.Params.d q.Dl.Params.d
  && float_bits_equal p.Dl.Params.k q.Dl.Params.k
  && growth_equal p.Dl.Params.r q.Dl.Params.r
  && float_bits_equal p.Dl.Params.l q.Dl.Params.l
  && float_bits_equal p.Dl.Params.big_l q.Dl.Params.big_l

(* A cheap realisable fitting target: densities generated by the DL
   model itself (cf. test_dl's synthetic_obs, scaled down). *)
let synthetic_obs () =
  let phi =
    Dl.Initial.of_observations
      ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
      ~densities:[| 6.0; 3.1; 2.3; 1.2; 0.7; 0.4 |]
  in
  let times = [| 1.; 2.; 3.; 4. |] in
  let sol = Dl.Model.solve Dl.Params.paper_hops ~phi ~times in
  let distances = [| 1; 2; 3; 4; 5; 6 |] in
  {
    Socialnet.Density.distances;
    times;
    density =
      Array.map
        (fun x ->
          Array.map
            (fun t -> Dl.Model.predict sol ~x:(float_of_int x) ~t)
            times)
        distances;
    population = Array.map (fun _ -> 100) distances;
  }

let fast_fit_config =
  {
    Dl.Fit.default_config with
    fit_times = [| 2.; 3. |];
    starts = 4;
    solver_nx = 21;
    solver_dt = 0.1;
  }

let test_fit_equivalence () =
  let obs = synthetic_obs () in
  let fit pool = Dl.Fit.fit ~config:fast_fit_config ~pool (Rng.create 11) obs in
  let seq = fit Pool.sequential in
  let par = fit pool4 in
  Alcotest.(check bool) "params bit-identical" true
    (params_equal seq.Dl.Fit.params par.Dl.Fit.params);
  check_bits "training error bit-identical" seq.Dl.Fit.training_error
    par.Dl.Fit.training_error;
  Alcotest.(check int) "same number of PDE solves" seq.Dl.Fit.evaluations
    par.Dl.Fit.evaluations

let corpus = lazy (Socialnet.Digg.build ~scale:Socialnet.Digg.small ~seed:5 ())

let story_result_equal (a : Dl.Batch.story_result) (b : Dl.Batch.story_result) =
  a.Dl.Batch.story_id = b.Dl.Batch.story_id
  && a.Dl.Batch.votes = b.Dl.Batch.votes
  && float_bits_equal a.Dl.Batch.overall b.Dl.Batch.overall
  && params_equal a.Dl.Batch.params b.Dl.Batch.params
  && a.Dl.Batch.skipped = b.Dl.Batch.skipped

let test_batch_equivalence () =
  let ds = (Lazy.force corpus).Socialnet.Digg.dataset in
  let stories = Dl.Batch.top_stories ds ~n:8 in
  let eval pool =
    Dl.Batch.evaluate ~pool ~mode:Dl.Batch.Paper_params ds ~stories
  in
  let seq = eval Pool.sequential in
  let par = eval pool4 in
  Alcotest.(check int) "same story count"
    (Array.length seq.Dl.Batch.results)
    (Array.length par.Dl.Batch.results);
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "story_result %d bit-identical" i)
        true
        (story_result_equal a par.Dl.Batch.results.(i)))
    seq.Dl.Batch.results;
  check_bits "mean identical" seq.Dl.Batch.mean_overall
    par.Dl.Batch.mean_overall;
  check_bits "median identical" seq.Dl.Batch.median_overall
    par.Dl.Batch.median_overall

let test_top_stories_deterministic_under_ties () =
  let ds = (Lazy.force corpus).Socialnet.Digg.dataset in
  let n = Socialnet.Dataset.n_stories ds in
  let top = Dl.Batch.top_stories ds ~n in
  (* within every equal-vote run, ids must ascend *)
  for i = 1 to Array.length top - 1 do
    let a = top.(i - 1) and b = top.(i) in
    let va = Socialnet.Types.story_vote_count a
    and vb = Socialnet.Types.story_vote_count b in
    Alcotest.(check bool) "votes descending" true (va >= vb);
    if va = vb then
      Alcotest.(check bool) "ties broken by ascending id" true
        (a.Socialnet.Types.id < b.Socialnet.Types.id)
  done

let test_sensitivity_equivalence () =
  (* the rows (order and values) must not depend on the pool *)
  let p = Dl.Params.paper_hops in
  let f (q : Dl.Params.t) = q.Dl.Params.d +. (2. *. q.Dl.Params.k) in
  let seq = Dl.Sensitivity.one_at_a_time ~pool:Pool.sequential f p in
  let par = Dl.Sensitivity.one_at_a_time ~pool:pool4 f p in
  Alcotest.(check int) "same row count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i (a : Dl.Sensitivity.row) ->
      let b = par.(i) in
      Alcotest.(check bool) "axis" true (a.Dl.Sensitivity.axis = b.Dl.Sensitivity.axis);
      check_bits "factor" a.Dl.Sensitivity.factor b.Dl.Sensitivity.factor;
      check_bits "value" a.Dl.Sensitivity.value b.Dl.Sensitivity.value;
      check_bits "delta" a.Dl.Sensitivity.delta b.Dl.Sensitivity.delta)
    seq

let suite =
  [
    Alcotest.test_case "zero items" `Quick test_zero_items;
    Alcotest.test_case "negative n" `Quick test_negative_n;
    Alcotest.test_case "fewer items than workers" `Quick
      test_fewer_items_than_workers;
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "parallel_for covers every index" `Quick
      test_parallel_for_covers_every_index;
    Alcotest.test_case "worker exception re-raised" `Quick
      test_exception_reraised;
    Alcotest.test_case "create validates jobs" `Quick test_create_validates;
    Alcotest.test_case "fit jobs=1 = jobs=4 (bit-identical)" `Slow
      test_fit_equivalence;
    Alcotest.test_case "batch jobs=1 = jobs=4 (bit-identical)" `Slow
      test_batch_equivalence;
    Alcotest.test_case "top_stories tie-break" `Quick
      test_top_stories_deterministic_under_ties;
    Alcotest.test_case "sensitivity jobs=1 = jobs=4" `Quick
      test_sensitivity_equivalence;
  ]
