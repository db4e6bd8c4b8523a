(* Tests for the sparse/Laplacian substrate and the node-level network
   DL model, plus sensitivity analysis and corpus statistics. *)

open Numerics

let checkf tol = Alcotest.(check (float tol))

(* --- Sparse --- *)

let sample_sparse () =
  Sparse.of_triplets ~rows:3 ~cols:3
    [ (0, 0, 2.); (0, 1, -1.); (1, 0, -1.); (1, 1, 2.); (1, 2, -1.);
      (2, 1, -1.); (2, 2, 2.) ]

let test_sparse_construction () =
  let m = sample_sparse () in
  Alcotest.(check int) "rows" 3 (Sparse.rows m);
  Alcotest.(check int) "cols" 3 (Sparse.cols m);
  checkf 1e-12 "diag" 2. (Sparse.get m 1 1);
  checkf 1e-12 "off-diag" (-1.) (Sparse.get m 0 1);
  checkf 1e-12 "absent" 0. (Sparse.get m 0 2)

let test_sparse_duplicate_triplets_summed () =
  let m = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 0, 2.5) ] in
  checkf 1e-12 "summed" 3.5 (Sparse.get m 0 0)

let test_sparse_mv_matches_dense () =
  let m = sample_sparse () in
  let x = [| 1.; 2.; 3. |] in
  let dense = Sparse.to_dense m in
  Alcotest.(check bool) "mv agrees" true
    (Vec.approx_equal (Sparse.mv m x) (Mat.mv dense x))

let test_sparse_scale_add_identity () =
  let m = sample_sparse () in
  let m2 = Sparse.add_identity 3. (Sparse.scale 2. m) in
  checkf 1e-12 "scaled diag + shift" 7. (Sparse.get m2 0 0);
  checkf 1e-12 "scaled off-diag" (-2.) (Sparse.get m2 0 1);
  (* identity added where no entry existed *)
  let empty = Sparse.of_triplets ~rows:2 ~cols:2 [] in
  let id = Sparse.add_identity 1. empty in
  checkf 1e-12 "pure identity" 1. (Sparse.get id 1 1)

let test_cg_solves_spd () =
  let m = sample_sparse () in
  (* SPD tridiagonal; solve and verify residual *)
  let b = [| 1.; 0.; 2. |] in
  let x = Sparse.conjugate_gradient m b in
  Alcotest.(check bool) "residual small" true
    (Vec.norm2 (Vec.sub (Sparse.mv m x) b) < 1e-8)

let test_cg_random_spd =
  QCheck.Test.make ~count:100 ~name:"CG matches dense LU on random SPD systems"
    QCheck.(pair (int_range 2 20) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      (* SPD via diagonally dominant symmetric construction *)
      let triplets = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Rng.bernoulli rng 0.3 then begin
            let v = Rng.uniform rng (-1.) 1. in
            triplets := (i, j, v) :: (j, i, v) :: !triplets
          end
        done
      done;
      let row_sums = Array.make n 0. in
      List.iter (fun (i, _, v) -> row_sums.(i) <- row_sums.(i) +. Float.abs v) !triplets;
      for i = 0 to n - 1 do
        triplets := (i, i, row_sums.(i) +. 1.) :: !triplets
      done;
      let a = Sparse.of_triplets ~rows:n ~cols:n !triplets in
      let b = Array.init n (fun _ -> Rng.uniform rng (-5.) 5.) in
      let x_cg = Sparse.conjugate_gradient a b in
      let x_lu = Mat.solve (Sparse.to_dense a) b in
      Vec.approx_equal ~tol:1e-6 x_cg x_lu)

(* --- Laplacian --- *)

let test_laplacian_row_sums_zero () =
  let g = Osn_graph.Generators.barabasi_albert (Rng.create 3) ~n:100 ~m:2 () in
  let l = Osn_graph.Laplacian.undirected_laplacian g in
  let ones = Array.make 100 1. in
  let lu = Sparse.mv l ones in
  Array.iter (fun v -> checkf 1e-12 "row sum zero" 0. v) lu

let test_laplacian_line_graph () =
  let g = Osn_graph.Generators.line 3 in
  let l = Osn_graph.Laplacian.undirected_laplacian g in
  checkf 1e-12 "endpoint degree" 1. (Sparse.get l 0 0);
  checkf 1e-12 "middle degree" 2. (Sparse.get l 1 1);
  checkf 1e-12 "edge weight" (-1.) (Sparse.get l 0 1);
  checkf 1e-12 "no edge" 0. (Sparse.get l 0 2)

let test_laplacian_counts_undirected_once () =
  (* mutual follows must contribute a single undirected edge *)
  let g = Osn_graph.Digraph.of_edges 2 [ (0, 1); (1, 0) ] in
  let l = Osn_graph.Laplacian.undirected_laplacian g in
  checkf 1e-12 "degree 1" 1. (Sparse.get l 0 0);
  checkf 1e-12 "single edge" (-1.) (Sparse.get l 0 1)

(* --- Network model --- *)

let vote user time = { Socialnet.Types.user; time }

let test_indicator_initial () =
  let story =
    {
      Socialnet.Types.id = 0;
      initiator = 0;
      topic = 0;
      votes = [| vote 0 0.; vote 2 0.5; vote 3 2. |];
    }
  in
  let i0 = Dl.Network_model.indicator_initial story ~n_users:5 ~at:1. in
  Alcotest.(check bool) "voters at 100" true
    (Vec.approx_equal i0 [| 100.; 0.; 100.; 0.; 0. |])

let test_network_no_diffusion_is_logistic () =
  let lap = Osn_graph.Laplacian.undirected_laplacian (Osn_graph.Generators.line 4) in
  let p =
    { Dl.Network_model.d = 0.; k = 100.; r = Dl.Growth.Constant 0.8 }
  in
  let i0 = [| 10.; 0.; 5.; 0. |] in
  let snapshots = Dl.Network_model.solve ~dt:0.01 ~laplacian:lap p ~i0 ~times:[| 4. |] in
  let _, field = snapshots.(0) in
  checkf 1e-2 "node 0 logistic"
    (100. *. Ode.logistic ~r:0.8 ~k:1. ~n0:0.1 3.)
    field.(0);
  checkf 1e-9 "untouched node stays zero" 0. field.(1)

let test_network_diffusion_spreads_along_edges () =
  (* a seeded node leaks influence to its neighbour, not to a
     disconnected node *)
  let g = Osn_graph.Digraph.of_edges 3 [ (0, 1) ] in
  let lap = Osn_graph.Laplacian.undirected_laplacian g in
  let p =
    { Dl.Network_model.d = 0.2; k = 100.; r = Dl.Growth.Constant 0. }
  in
  let snapshots =
    Dl.Network_model.solve ~dt:0.05 ~laplacian:lap p ~i0:[| 100.; 0.; 0. |]
      ~times:[| 5. |]
  in
  let _, field = snapshots.(0) in
  Alcotest.(check bool) "neighbour gains" true (field.(1) > 5.);
  checkf 1e-9 "disconnected node untouched" 0. field.(2);
  (* diffusion conserves total mass *)
  checkf 1e-6 "mass conserved" 100. (Vec.sum field)

let test_network_bounds () =
  let g = Osn_graph.Generators.barabasi_albert (Rng.create 5) ~n:200 ~m:2 () in
  let lap = Osn_graph.Laplacian.undirected_laplacian g in
  let p =
    { Dl.Network_model.d = 0.05; k = 100.;
      r = Dl.Growth.Exp_decay { a = 1.; b = 1.; c = 0.2 } }
  in
  let i0 = Array.init 200 (fun v -> if v mod 17 = 0 then 100. else 0.) in
  let snapshots =
    Dl.Network_model.solve ~dt:0.1 ~laplacian:lap p ~i0 ~times:[| 3.; 6. |]
  in
  Array.iter
    (fun (_, field) ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) "0 <= I <= K" true (v >= 0. && v <= 100.))
        field)
    snapshots

let test_group_average () =
  let assignment = [| -1; 1; 1; 2; 3 |] in
  let field = [| 999.; 10.; 30.; 50.; 0. |] in
  let groups = Dl.Network_model.group_average ~assignment ~max_distance:3 field in
  checkf 1e-12 "group 1 mean" 20. groups.(0);
  checkf 1e-12 "group 2" 50. groups.(1);
  checkf 1e-12 "group 3" 0. groups.(2)

let test_network_fit_grid () =
  (* fit on data produced by the model itself: the grid must select the
     generating cell *)
  let g = Osn_graph.Generators.barabasi_albert (Rng.create 8) ~n:150 ~m:2 () in
  let lap = Osn_graph.Laplacian.undirected_laplacian g in
  let assignment = Array.init 150 (fun v -> 1 + (v mod 3)) in
  let truth = { Dl.Network_model.d = 0.1; k = 100.; r = Dl.Growth.Constant 0.5 } in
  let i0 = Array.init 150 (fun v -> if v < 10 then 100. else 0.) in
  let times = [| 1.; 2.; 3.; 4. |] in
  let snapshots =
    Dl.Network_model.solve ~dt:0.05 ~laplacian:lap truth ~i0
      ~times:(Array.sub times 1 3)
  in
  let density =
    Array.init 3 (fun ix ->
        Array.init 4 (fun it ->
            if it = 0 then
              (Dl.Network_model.group_average ~assignment ~max_distance:3 i0).(ix)
            else
              let _, field = snapshots.(it - 1) in
              (Dl.Network_model.group_average ~assignment ~max_distance:3 field).(ix)))
  in
  let obs =
    {
      Socialnet.Density.distances = [| 1; 2; 3 |];
      times;
      density;
      population = [| 50; 50; 50 |];
    }
  in
  let result =
    Dl.Network_model.fit_grid ~dt:0.05 ~laplacian:lap ~assignment ~obs ~i0
      ~d_grid:[| 0.01; 0.1; 0.5 |]
      ~r_grid:[| 0.1; 0.5; 1.0 |]
      ~k:100. ()
  in
  checkf 1e-12 "recovers d" 0.1 result.Dl.Network_model.params.Dl.Network_model.d;
  Alcotest.(check bool) "tiny error" true
    (result.Dl.Network_model.training_error < 1e-6)

(* --- Sensitivity --- *)

let paper_phi () =
  Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
    ~densities:[| 6.0; 3.1; 2.3; 1.2; 0.7; 0.4 |]

let quadratic_objective (p : Dl.Params.t) =
  (* a synthetic objective maximised exactly at the paper's d and K *)
  -.(((p.Dl.Params.d -. 0.01) /. 0.01) ** 2.)
  -. (((p.Dl.Params.k -. 25.) /. 25.) ** 2.)

let test_perturb () =
  let p = Dl.Params.paper_hops in
  let p2 = Dl.Sensitivity.perturb p Dl.Sensitivity.D 2. in
  checkf 1e-12 "d doubled" 0.02 p2.Dl.Params.d;
  let p3 = Dl.Sensitivity.perturb p Dl.Sensitivity.R_b 0.5 in
  (match p3.Dl.Params.r with
  | Dl.Growth.Exp_decay { b; _ } -> checkf 1e-12 "b halved" 0.75 b
  | Dl.Growth.Constant _ -> Alcotest.fail "expected Exp_decay");
  let const = Dl.Params.make ~d:0.1 ~k:10. ~r:(Dl.Growth.Constant 1.) ~l:1. ~big_l:2. in
  try
    ignore (Dl.Sensitivity.perturb const Dl.Sensitivity.R_a 2.);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_one_at_a_time () =
  let rows = Dl.Sensitivity.one_at_a_time quadratic_objective Dl.Params.paper_hops in
  (* 5 axes x 4 factors *)
  Alcotest.(check int) "row count" 20 (Array.length rows);
  Array.iter
    (fun (r : Dl.Sensitivity.row) ->
      (* reference is the optimum of the synthetic objective: every
         perturbation must not improve it *)
      Alcotest.(check bool) "no improvement at optimum" true
        (r.Dl.Sensitivity.delta <= 1e-12))
    rows

let test_elasticity_signs () =
  (* objective increasing in d near the reference -> positive elasticity *)
  let f (p : Dl.Params.t) = p.Dl.Params.d *. 100. in
  let e = Dl.Sensitivity.elasticity f Dl.Params.paper_hops Dl.Sensitivity.D in
  checkf 1e-6 "unit elasticity for linear objective" 1. e

let test_accuracy_objective_runs () =
  let phi = paper_phi () in
  let obs =
    {
      Socialnet.Density.distances = [| 1; 2; 3; 4; 5; 6 |];
      times = [| 1.; 2.; 3. |];
      density =
        [| [| 6.0; 8.; 10. |]; [| 3.1; 5.; 7. |]; [| 2.3; 4.; 5. |];
           [| 1.2; 2.; 3. |]; [| 0.7; 1.5; 2. |]; [| 0.4; 1.; 1.5 |] |];
      population = Array.make 6 100;
    }
  in
  let f = Dl.Sensitivity.accuracy_objective ~phi ~obs ~times:[| 2.; 3. |] in
  let v = f Dl.Params.paper_hops in
  Alcotest.(check bool) "objective in [0, 1]" true (v >= 0. && v <= 1.)

(* --- Corpus stats --- *)

let test_corpus_stats () =
  let c = Socialnet.Digg.build ~scale:Socialnet.Digg.small ~seed:5 () in
  let s = Socialnet.Corpus_stats.compute c.Socialnet.Digg.dataset in
  Alcotest.(check int) "users" 2000 s.Socialnet.Corpus_stats.n_users;
  Alcotest.(check int) "stories" 84 s.Socialnet.Corpus_stats.n_stories;
  Alcotest.(check bool) "reciprocity sane" true
    (s.Socialnet.Corpus_stats.reciprocity > 0.05
     && s.Socialnet.Corpus_stats.reciprocity < 0.8);
  Alcotest.(check bool) "heavy-tailed followers" true
    (float_of_int s.Socialnet.Corpus_stats.max_followers
     > 5. *. s.Socialnet.Corpus_stats.mean_followers);
  Alcotest.(check bool) "most users vote" true
    (s.Socialnet.Corpus_stats.fraction_users_voting > 0.5)

let suite =
  [
    Alcotest.test_case "sparse construction" `Quick test_sparse_construction;
    Alcotest.test_case "sparse duplicates" `Quick test_sparse_duplicate_triplets_summed;
    Alcotest.test_case "sparse mv" `Quick test_sparse_mv_matches_dense;
    Alcotest.test_case "sparse scale+identity" `Quick test_sparse_scale_add_identity;
    Alcotest.test_case "cg solves spd" `Quick test_cg_solves_spd;
    QCheck_alcotest.to_alcotest test_cg_random_spd;
    Alcotest.test_case "laplacian row sums" `Quick test_laplacian_row_sums_zero;
    Alcotest.test_case "laplacian line" `Quick test_laplacian_line_graph;
    Alcotest.test_case "laplacian mutual edges" `Quick test_laplacian_counts_undirected_once;
    Alcotest.test_case "indicator initial" `Quick test_indicator_initial;
    Alcotest.test_case "network logistic" `Quick test_network_no_diffusion_is_logistic;
    Alcotest.test_case "network diffusion" `Quick test_network_diffusion_spreads_along_edges;
    Alcotest.test_case "network bounds" `Quick test_network_bounds;
    Alcotest.test_case "group average" `Quick test_group_average;
    Alcotest.test_case "network fit grid" `Slow test_network_fit_grid;
    Alcotest.test_case "sensitivity perturb" `Quick test_perturb;
    Alcotest.test_case "one-at-a-time" `Quick test_one_at_a_time;
    Alcotest.test_case "elasticity" `Quick test_elasticity_signs;
    Alcotest.test_case "accuracy objective" `Quick test_accuracy_objective_runs;
    Alcotest.test_case "corpus stats" `Slow test_corpus_stats;
  ]
