(* Randomised cross-module invariants (qcheck).

   Each property encodes something the theory guarantees for *all*
   inputs in a domain, not just hand-picked cases: PDE maximum
   principles, metric axioms, conservation laws, algebraic identities
   of the substrates. *)

open Numerics

let rng_of seed = Rng.create seed

(* ------------------------------------------------------------------ *)
(* numerics                                                            *)
(* ------------------------------------------------------------------ *)

let prop_spline_between_extremes_at_dense_data =
  (* a spline through monotone-decreasing positive data with flat ends
     stays below its max knot (maximum principle for the interpolant is
     false in general, but the flat-end construction bounds overshoot
     by the data range on decreasing profiles; we check a relaxed
     version: within [min - range, max + range]) *)
  QCheck.Test.make ~count:200 ~name:"flat-end spline overshoot is bounded"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      let n = 4 + Rng.int rng 6 in
      let xs = Array.init n (fun i -> float_of_int (i + 1)) in
      let ys = Array.make n 0. in
      ys.(0) <- Rng.uniform rng 1. 20.;
      for i = 1 to n - 1 do
        ys.(i) <- ys.(i - 1) *. Rng.uniform rng 0.2 0.95
      done;
      let s = Spline.flat_ends ~xs ~ys in
      let lo = Stats.min ys and hi = Stats.max ys in
      let range = hi -. lo in
      let ok = ref true in
      for i = 0 to 200 do
        let x = 1. +. (float_of_int (n - 1) *. float_of_int i /. 200.) in
        let v = Spline.eval s x in
        if v < lo -. range || v > hi +. range then ok := false
      done;
      !ok)

let prop_quadrature_linearity =
  QCheck.Test.make ~count:200 ~name:"simpson is linear in the integrand"
    QCheck.(triple (float_range (-5.) 5.) (float_range (-5.) 5.)
              (int_range 0 1_000_000))
    (fun (alpha, beta, seed) ->
      let rng = rng_of seed in
      let c1 = Rng.uniform rng (-2.) 2. and c2 = Rng.uniform rng (-2.) 2. in
      let f x = sin (c1 *. x) and g x = exp (c2 *. x /. 5.) in
      let combined x = (alpha *. f x) +. (beta *. g x) in
      let int_f = Quadrature.simpson f ~a:0. ~b:2. ~n:64 in
      let int_g = Quadrature.simpson g ~a:0. ~b:2. ~n:64 in
      let int_c = Quadrature.simpson combined ~a:0. ~b:2. ~n:64 in
      Float.abs (int_c -. ((alpha *. int_f) +. (beta *. int_g))) < 1e-9)

let prop_rkf45_matches_rk4 =
  QCheck.Test.make ~count:50 ~name:"rkf45 agrees with dense rk4 on decay ODEs"
    QCheck.(pair (float_range 0.1 2.) (float_range 0.1 3.))
    (fun (lambda, t1) ->
      let rhs = Ode.scalar_rhs (fun ~t:_ ~y -> -.lambda *. y) in
      let adaptive = Ode.rkf45 rhs ~y0:[| 1. |] ~t0:0. ~t1 in
      let exact = exp (-.lambda *. t1) in
      Float.abs (adaptive.(0) -. exact) < 1e-6)

let prop_pde_max_principle_pure_diffusion =
  QCheck.Test.make ~count:60
    ~name:"pure diffusion obeys the maximum principle"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      let n = 5 + Rng.int rng 5 in
      let values = Array.init n (fun _ -> Rng.uniform rng 0. 10.) in
      let xs = Array.init n (fun i -> float_of_int i) in
      let spline = Spline.flat_ends ~xs ~ys:values in
      let p =
        {
          Pde.xl = 0.;
          xr = float_of_int (n - 1);
          nx = 51;
          diffusion = (fun _ -> Rng.uniform rng 0.01 0.5);
          reaction = Pde.Custom (fun ~x:_ ~t:_ ~u:_ -> 0.);
          initial = Spline.eval spline;
          t0 = 0.;
        }
      in
      (* the spline can overshoot the data, so take the bound from the
         actual discretised initial profile *)
      let grid = Pde.grid p in
      let u0 = Array.map p.Pde.initial grid in
      let lo = Stats.min u0 and hi = Stats.max u0 in
      let sol = Pde.solve ~dt:5e-3 p ~times:[| 0.5; 2. |] in
      Array.for_all
        (fun row ->
          Array.for_all (fun v -> v >= lo -. 1e-6 && v <= hi +. 1e-6) row)
        sol.Pde.values)

let prop_optimizer_beats_random_point =
  QCheck.Test.make ~count:60 ~name:"nelder-mead never loses to its start"
    QCheck.(pair (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (cx, cy) ->
      let f v = ((v.(0) -. cx) ** 2.) +. ((v.(1) -. cy) ** 2.) +. 1. in
      let x0 = [| 0.; 0. |] in
      let r = Optimize.nelder_mead f ~x0 in
      r.Optimize.f <= f x0 +. 1e-12)

(* ------------------------------------------------------------------ *)
(* graph + socialnet                                                   *)
(* ------------------------------------------------------------------ *)

let prop_reverse_involution =
  QCheck.Test.make ~count:100 ~name:"reverse (reverse g) = g"
    QCheck.(pair (int_range 2 30) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = rng_of seed in
      let g = Osn_graph.Generators.erdos_renyi rng ~n ~p:0.2 in
      let rr = Osn_graph.Digraph.reverse (Osn_graph.Digraph.reverse g) in
      List.sort compare (Osn_graph.Digraph.edges g)
      = List.sort compare (Osn_graph.Digraph.edges rr))

let prop_degree_sum_equals_edges =
  QCheck.Test.make ~count:100 ~name:"sum of out-degrees = edge count"
    QCheck.(pair (int_range 1 40) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = rng_of seed in
      let g = Osn_graph.Generators.erdos_renyi rng ~n ~p:0.15 in
      let sum_out = ref 0 and sum_in = ref 0 in
      for v = 0 to n - 1 do
        sum_out := !sum_out + Osn_graph.Digraph.out_degree g v;
        sum_in := !sum_in + Osn_graph.Digraph.in_degree g v
      done;
      !sum_out = Osn_graph.Digraph.n_edges g && !sum_in = !sum_out)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~count:60 ~name:"BFS distances satisfy edge relaxation"
    QCheck.(pair (int_range 2 25) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = rng_of seed in
      let g = Osn_graph.Generators.erdos_renyi rng ~n ~p:0.25 in
      let dist = Osn_graph.Traversal.bfs_distances g 0 in
      let ok = ref true in
      Osn_graph.Digraph.iter_edges g (fun u v ->
          if dist.(u) >= 0 then
            if dist.(v) < 0 || dist.(v) > dist.(u) + 1 then ok := false);
      !ok)

let prop_scc_within_weak =
  QCheck.Test.make ~count:60 ~name:"SCCs refine weak components"
    QCheck.(pair (int_range 2 25) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = rng_of seed in
      let g = Osn_graph.Generators.erdos_renyi rng ~n ~p:0.15 in
      let scc, _ = Osn_graph.Traversal.strongly_connected_components g in
      let weak, _ = Osn_graph.Traversal.weakly_connected_components g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if scc.(u) = scc.(v) && weak.(u) <> weak.(v) then ok := false
        done
      done;
      !ok)

let prop_pagerank_is_distribution =
  QCheck.Test.make ~count:60 ~name:"pagerank sums to one and is positive"
    QCheck.(pair (int_range 1 40) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = rng_of seed in
      let g = Osn_graph.Generators.erdos_renyi rng ~n ~p:0.2 in
      let pr = Osn_graph.Centrality.pagerank g in
      Float.abs (Array.fold_left ( +. ) 0. pr -. 1.) < 1e-6
      && Array.for_all (fun v -> v > 0.) pr)

let prop_k_core_bounded_by_degree =
  QCheck.Test.make ~count:60 ~name:"core number <= undirected degree"
    QCheck.(pair (int_range 1 30) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = rng_of seed in
      let g = Osn_graph.Generators.erdos_renyi rng ~n ~p:0.2 in
      let core = Osn_graph.Centrality.k_core g in
      let deg = Osn_graph.Laplacian.degrees g in
      Array.for_all2 (fun c d -> c <= d) core deg)

let prop_jaccard_metric_axioms =
  QCheck.Test.make ~count:60 ~name:"shared-interest distance axioms"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      (* small random dataset *)
      let n = 6 in
      let g = Osn_graph.Digraph.create n in
      let stories =
        Array.init 5 (fun id ->
            let initiator = Rng.int rng n in
            let extras =
              Array.to_list (Rng.sample_without_replacement rng (Rng.int rng n) n)
              |> List.filter (fun u -> u <> initiator)
            in
            let votes =
              { Socialnet.Types.user = initiator; time = 0. }
              :: List.mapi
                   (fun i u ->
                     { Socialnet.Types.user = u;
                       time = 0.1 +. float_of_int i })
                   extras
            in
            {
              Socialnet.Types.id;
              initiator;
              topic = 0;
              votes = Array.of_list votes;
            })
      in
      let ds = Socialnet.Dataset.make ~follows:g ~stories in
      let dist = Socialnet.Distance.shared_interest ds ~exclude:(-1) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let d = dist a b in
          if d < -1e-12 || d > 1. +. 1e-12 then ok := false;
          if Float.abs (d -. dist b a) > 1e-12 then ok := false
        done;
        (* identity: non-empty histories are at distance 0 from self *)
        if Array.length (Socialnet.Dataset.stories_voted_by ds a) > 0 then
          if Float.abs (dist a a) > 1e-12 then ok := false
      done;
      !ok)

let prop_interest_distances_match_merge =
  (* [Distance.interest_distances] replaces a sorted merge per user with
     a table scan; [shared_interest] (the merge) is the oracle.  Story
     ids repeat, so vote lists carry repeated ids, and every list can
     hold the excluded story; one story in four draws a far-off id,
     which sends initiators that voted on it down the sparse fallback. *)
  QCheck.Test.make ~count:200 ~name:"interest distances = shared_interest"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      let n = 2 + Rng.int rng 7 in
      let stories =
        Array.init (1 + Rng.int rng 9) (fun _ ->
            let id = if Rng.int rng 4 = 0 then 1_000_000 else Rng.int rng 5 in
            let initiator = Rng.int rng n in
            let extras =
              Array.to_list (Rng.sample_without_replacement rng (Rng.int rng n) n)
              |> List.filter (fun u -> u <> initiator)
            in
            let votes =
              { Socialnet.Types.user = initiator; time = 0. }
              :: List.mapi
                   (fun i u -> { Socialnet.Types.user = u; time = 0.1 +. float_of_int i })
                   extras
            in
            { Socialnet.Types.id; initiator; topic = 0; votes = Array.of_list votes })
      in
      let ds =
        Socialnet.Dataset.make ~follows:(Osn_graph.Digraph.create n) ~stories
      in
      Array.for_all
        (fun (story : Socialnet.Types.story) ->
          let exclude = story.Socialnet.Types.id in
          let init = story.Socialnet.Types.initiator in
          let got = Socialnet.Distance.interest_distances ds ~story in
          Array.for_all Fun.id
            (Array.mapi
               (fun u d ->
                 let measurable =
                   Array.exists (fun x -> x <> exclude)
                     (Socialnet.Dataset.stories_voted_by ds u)
                 in
                 let expect =
                   if u = init || not measurable then nan
                   else Socialnet.Distance.shared_interest ds ~exclude init u
                 in
                 Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float expect))
               got))
        stories)

let prop_cascade_respects_structure =
  QCheck.Test.make ~count:40 ~name:"cascade voters are valid and sorted"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      let n = 30 + Rng.int rng 100 in
      let g =
        Osn_graph.Generators.barabasi_albert (Rng.create (seed + 1)) ~n ~m:2 ()
      in
      let params =
        {
          Socialnet.Cascade.default with
          promote_threshold = 1 + Rng.int rng 5;
          front_page_rate = Rng.uniform rng 0. 20.;
          front_page_burst = Rng.float rng *. 0.5;
          duration = Rng.uniform rng 5. 50.;
        }
      in
      let story =
        Socialnet.Cascade.simulate rng
          ~influence:(Osn_graph.Digraph.reverse g)
          ~affinity:(fun _ -> Rng.float rng)
          ~params ~initiator:(Rng.int rng n) ~story_id:0 ~topic:0 ()
      in
      (* check_story raises on any violated invariant *)
      Socialnet.Types.check_story story;
      Array.for_all
        (fun (v : Socialnet.Types.vote) ->
          v.Socialnet.Types.time <= params.Socialnet.Cascade.duration)
        story.Socialnet.Types.votes)

(* ------------------------------------------------------------------ *)
(* dl core                                                             *)
(* ------------------------------------------------------------------ *)

let random_phi rng =
  let n = 4 + Rng.int rng 4 in
  let xs = Array.init n (fun i -> float_of_int (i + 1)) in
  let ys = Array.init n (fun _ -> Rng.uniform rng 0.2 8.) in
  (Dl.Initial.of_observations ~xs ~densities:ys, xs.(0), xs.(n - 1))

let prop_dl_bounds_random_phi =
  QCheck.Test.make ~count:40 ~name:"DL solutions stay in [0, K]"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      let phi, l, big_l = random_phi rng in
      let params =
        Dl.Params.make
          ~d:(Rng.uniform rng 0. 0.3)
          ~k:(Rng.uniform rng 10. 40.)
          ~r:
            (Dl.Growth.Exp_decay
               {
                 a = Rng.uniform rng 0. 2.;
                 b = Rng.uniform rng 0.2 2.;
                 c = Rng.uniform rng 0. 0.5;
               })
          ~l ~big_l
      in
      let sol = Dl.Model.solve params ~phi ~times:[| 2.; 4.; 6. |] in
      (Dl.Properties.bounds sol).Dl.Properties.holds)

let prop_dl_monotone_when_lower_solution =
  QCheck.Test.make ~count:40
    ~name:"DL solutions grow when phi is a lower solution"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      let phi, l, big_l = random_phi rng in
      (* generous K and small d make phi a lower solution (the paper's
         own sufficient condition); skip draws where it fails *)
      let params =
        Dl.Params.make
          ~d:(Rng.uniform rng 0. 0.02)
          ~k:60.
          ~r:(Dl.Growth.Constant (Rng.uniform rng 0.3 1.5))
          ~l ~big_l
      in
      if not (Dl.Properties.is_lower_solution phi ~params) then
        QCheck.assume_fail ()
      else begin
        let sol = Dl.Model.solve params ~phi ~times:[| 2.; 3.; 5. |] in
        (Dl.Properties.monotone_in_time sol).Dl.Properties.holds
      end)

let prop_accuracy_bounds =
  QCheck.Test.make ~count:200 ~name:"accuracy lies in [0, 1] or is nan"
    QCheck.(pair (float_range (-100.) 100.) (float_range (-100.) 100.))
    (fun (predicted, actual) ->
      let a = Dl.Accuracy.accuracy ~predicted ~actual in
      Float.is_nan a || (a >= 0. && a <= 1.))

let prop_accuracy_perfect_iff_equal =
  QCheck.Test.make ~count:200 ~name:"accuracy = 1 iff prediction exact"
    QCheck.(pair (float_range 0.1 100.) (float_range (-0.5) 0.5))
    (fun (actual, noise) ->
      let predicted = actual *. (1. +. noise) in
      let a = Dl.Accuracy.accuracy ~predicted ~actual in
      if noise = 0. then a = 1. else a < 1. +. 1e-12)

let prop_growth_integral_additive =
  QCheck.Test.make ~count:200 ~name:"growth integral is additive over intervals"
    QCheck.(triple (float_range 1. 5.) (float_range 0. 5.) (int_range 0 1_000_000))
    (fun (t0, span, seed) ->
      let rng = rng_of seed in
      let r =
        Dl.Growth.Exp_decay
          {
            a = Rng.uniform rng 0. 3.;
            b = Rng.uniform rng 0.01 3.;
            c = Rng.uniform rng 0. 1.;
          }
      in
      let mid = t0 +. (span /. 2.) and t1 = t0 +. span in
      let whole = Dl.Growth.integral r ~t0 ~t1 in
      let parts =
        Dl.Growth.integral r ~t0 ~t1:mid +. Dl.Growth.integral r ~t0:mid ~t1
      in
      Float.abs (whole -. parts) < 1e-9)

let prop_growth_integral_matches_simpson =
  (* The closed form against a fine Simpson rule on the short spans a
     Strang half step integrates over.  With b log-uniform down to 1e-15
     (and b = 0), a difference of two nearly equal exponentials lost
     most of its digits; the expm1 product keeps them. *)
  QCheck.Test.make ~count:2000 ~name:"growth integral matches Simpson for any b"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      let b =
        if Rng.int rng 10 = 0 then 0.
        else 10. ** Rng.uniform rng (-15.) (Float.log10 3.)
      in
      let a = Rng.uniform rng 0.01 3. and c = Rng.uniform rng 0. 1. in
      let t0 = Rng.uniform rng 1. 10. in
      let t1 = t0 +. Rng.uniform rng 1e-4 0.1 in
      let r = Dl.Growth.Exp_decay { a; b; c } in
      let exact = Dl.Growth.integral r ~t0 ~t1 in
      let numeric = Quadrature.simpson (Dl.Growth.eval r) ~a:t0 ~b:t1 ~n:200 in
      let rel = Float.abs (exact -. numeric) /. Float.abs numeric in
      rel <= 1e-12
      || QCheck.Test.fail_reportf
           "a=%h b=%h c=%h t0=%h t1=%h: closed form %.17g, Simpson %.17g \
            (relative error %.3g)"
           a b c t0 t1 exact numeric rel)

let prop_epidemic_monotone =
  QCheck.Test.make ~count:40 ~name:"SI epidemic is monotone non-decreasing"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = rng_of seed in
      let p =
        {
          Dl.Epidemic.beta_local = Rng.uniform rng 0. 2.;
          beta_cross = Rng.uniform rng 0. 0.5;
          mixing_decay = Rng.uniform rng 0.1 1.;
        }
      in
      let m = 2 + Rng.int rng 4 in
      let i0 = Array.init m (fun _ -> Rng.uniform rng 0. 50.) in
      let times = [| 2.; 3.; 5.; 8. |] in
      let result = Dl.Epidemic.simulate p ~i0 ~times in
      Array.for_all
        (fun row ->
          let ok = ref (row.(0) >= 0.) in
          for i = 1 to Array.length row - 1 do
            if row.(i) < row.(i - 1) -. 1e-9 then ok := false
          done;
          !ok)
        result)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_spline_between_extremes_at_dense_data;
      prop_quadrature_linearity;
      prop_rkf45_matches_rk4;
      prop_pde_max_principle_pure_diffusion;
      prop_optimizer_beats_random_point;
      prop_reverse_involution;
      prop_degree_sum_equals_edges;
      prop_bfs_triangle_inequality;
      prop_scc_within_weak;
      prop_pagerank_is_distribution;
      prop_k_core_bounded_by_degree;
      prop_jaccard_metric_axioms;
      prop_cascade_respects_structure;
      prop_dl_bounds_random_phi;
      prop_dl_monotone_when_lower_solution;
      prop_accuracy_bounds;
      prop_accuracy_perfect_iff_equal;
      prop_growth_integral_additive;
      prop_growth_integral_matches_simpson;
      prop_epidemic_monotone;
      prop_interest_distances_match_merge;
    ]
