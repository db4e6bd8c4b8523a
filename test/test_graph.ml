(* Tests for Osn_graph: digraph operations, traversals (BFS oracle via
   Floyd--Warshall), generators and metrics. *)

open Numerics
open Osn_graph

let checkf tol = Alcotest.(check (float tol))

(* --- Digraph --- *)

let test_empty_graph () =
  let g = Digraph.create 5 in
  Alcotest.(check int) "nodes" 5 (Digraph.n_nodes g);
  Alcotest.(check int) "edges" 0 (Digraph.n_edges g);
  Alcotest.(check bool) "no edge" false (Digraph.has_edge g 0 1)

let test_add_edges () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 2 3;
  Alcotest.(check int) "edge count" 3 (Digraph.n_edges g);
  Alcotest.(check bool) "0->1" true (Digraph.has_edge g 0 1);
  Alcotest.(check bool) "1->0 absent (directed)" false (Digraph.has_edge g 1 0);
  Alcotest.(check int) "out-degree 0" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in-degree 3" 1 (Digraph.in_degree g 3)

let test_duplicates_and_self_loops_ignored () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 1;
  Alcotest.(check int) "only one edge" 1 (Digraph.n_edges g)

let test_neighbors () =
  let g = Digraph.of_edges 4 [ (0, 1); (0, 2); (3, 0) ] in
  let out = Digraph.out_neighbors g 0 in
  Array.sort compare out;
  Alcotest.(check (array int)) "out" [| 1; 2 |] out

let test_reverse () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  let r = Digraph.reverse g in
  Alcotest.(check bool) "1->0" true (Digraph.has_edge r 1 0);
  Alcotest.(check bool) "2->1" true (Digraph.has_edge r 2 1);
  Alcotest.(check int) "edge count preserved" 2 (Digraph.n_edges r)

let test_iter_edges () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  let sorted = List.sort compare (Digraph.edges g) in
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2); (2, 0) ] sorted

(* --- Traversal --- *)

let test_bfs_line () =
  let g = Generators.line 5 in
  Alcotest.(check (array int)) "line distances" [| 0; 1; 2; 3; 4 |]
    (Traversal.bfs_distances (Traversal.adjacency g) 0);
  (* BFS follows direction: nothing reachable upstream *)
  Alcotest.(check (array int)) "from the end" [| -1; -1; -1; -1; 0 |]
    (Traversal.bfs_distances (Traversal.adjacency g) 4)

let test_bfs_star () =
  let g = Generators.star 6 in
  let d = Traversal.bfs_distances (Traversal.adjacency g) 0 in
  Alcotest.(check int) "source" 0 d.(0);
  for v = 1 to 5 do
    Alcotest.(check int) "leaf at distance 1" 1 d.(v)
  done

(* BFS against a Floyd--Warshall oracle on random small graphs. *)
let prop_bfs_vs_floyd_warshall =
  QCheck.Test.make ~count:100 ~name:"BFS matches Floyd-Warshall"
    QCheck.(triple (int_range 2 12) (int_range 1 2) (int_range 0 1_000_000))
    (fun (n, m, seed) ->
      let rng = Rng.create seed in
      let g =
        Generators.barabasi_albert rng ~n ~m:(Stdlib.min m (n - 1))
          ~reciprocity:(Rng.float rng) ()
      in
      let inf = 1_000_000 in
      let dist = Array.make_matrix n n inf in
      for v = 0 to n - 1 do
        dist.(v).(v) <- 0
      done;
      Digraph.iter_edges g (fun u v -> dist.(u).(v) <- 1);
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if dist.(i).(k) + dist.(k).(j) < dist.(i).(j) then
              dist.(i).(j) <- dist.(i).(k) + dist.(k).(j)
          done
        done
      done;
      let adj = Traversal.adjacency g and ok = ref true in
      for s = 0 to n - 1 do
        let bfs = Traversal.bfs_distances adj s in
        for v = 0 to n - 1 do
          let expected = if dist.(s).(v) >= inf then -1 else dist.(s).(v) in
          if bfs.(v) <> expected then ok := false
        done
      done;
      !ok)

(* --- Generators --- *)

let test_ba_basic_shape () =
  let rng = Rng.create 2 in
  let g = Generators.barabasi_albert rng ~n:2000 ~m:3 () in
  Alcotest.(check int) "nodes" 2000 (Digraph.n_nodes g);
  (* every late node got ~m out-edges (plus reciprocals) *)
  Alcotest.(check bool) "enough edges" true (Digraph.n_edges g >= 3 * (2000 - 4));
  (* heavy tail: max in-degree far above the mean *)
  let max_in = ref 0 in
  for v = 0 to 1999 do
    max_in := Stdlib.max !max_in (Digraph.in_degree g v)
  done;
  Alcotest.(check bool) "hub exists" true (float_of_int !max_in > 8. *. Metrics.mean_degree g)

let test_ba_reciprocity_knob () =
  let rng = Rng.create 3 in
  let g0 = Generators.barabasi_albert rng ~n:1000 ~m:3 ~reciprocity:0. () in
  let g1 = Generators.barabasi_albert rng ~n:1000 ~m:3 ~reciprocity:1. () in
  Alcotest.(check bool) "zero-reciprocity low" true (Metrics.reciprocity g0 < 0.15);
  (* the seed clique plus forced reciprocals push this near 1 *)
  Alcotest.(check bool) "full-reciprocity high" true (Metrics.reciprocity g1 > 0.95)

let test_ba_invalid_args () =
  let rng = Rng.create 4 in
  try
    ignore (Generators.barabasi_albert rng ~n:3 ~m:3 ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_deterministic_generators () =
  let build seed =
    Digraph.edges (Generators.barabasi_albert (Rng.create seed) ~n:300 ~m:2 ())
  in
  Alcotest.(check bool) "same seed, same graph" true (build 42 = build 42);
  Alcotest.(check bool) "different seed differs" true (build 42 <> build 43)

(* --- Metrics --- *)

let test_degree_histogram () =
  let g = Generators.star 5 in
  let hist = Metrics.degree_histogram `Out g in
  (* node 0 has out-degree 4; the rest 0 *)
  Alcotest.(check (array (pair int int))) "out histogram" [| (0, 4); (4, 1) |] hist

let test_mean_degree () =
  let g = Generators.ring 10 in
  checkf 1e-12 "ring mean degree" 1. (Metrics.mean_degree g)

let test_reciprocity_values () =
  let none = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  checkf 1e-12 "no mutual" 0. (Metrics.reciprocity none);
  let all = Digraph.of_edges 2 [ (0, 1); (1, 0) ] in
  checkf 1e-12 "all mutual" 1. (Metrics.reciprocity all);
  checkf 1e-12 "empty graph" 0. (Metrics.reciprocity (Digraph.create 3))

let test_clustering_complete () =
  let rng = Rng.create 8 in
  let g = Generators.complete 6 in
  checkf 1e-9 "complete graph clusters fully" 1.
    (Metrics.clustering_coefficient rng g);
  let l = Generators.line 6 in
  checkf 1e-9 "path has no triangles" 0. (Metrics.clustering_coefficient rng l)

let test_power_law_exponent () =
  (* exact power law count = d^-2.5 scaled *)
  let hist = Array.init 20 (fun i ->
      let d = i + 1 in
      (d, int_of_float (1e6 *. (float_of_int d ** -2.5)))) in
  let alpha = Metrics.power_law_exponent hist in
  Alcotest.(check bool) "exponent ~ 2.5" true (Float.abs (alpha -. 2.5) < 0.05)

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "add edges" `Quick test_add_edges;
    Alcotest.test_case "dup/self ignored" `Quick test_duplicates_and_self_loops_ignored;
    Alcotest.test_case "neighbors" `Quick test_neighbors;
    Alcotest.test_case "reverse" `Quick test_reverse;
    Alcotest.test_case "iter edges" `Quick test_iter_edges;
    Alcotest.test_case "bfs line" `Quick test_bfs_line;
    Alcotest.test_case "bfs star" `Quick test_bfs_star;
    QCheck_alcotest.to_alcotest prop_bfs_vs_floyd_warshall;
    Alcotest.test_case "BA shape" `Quick test_ba_basic_shape;
    Alcotest.test_case "BA reciprocity" `Quick test_ba_reciprocity_knob;
    Alcotest.test_case "BA invalid args" `Quick test_ba_invalid_args;
    Alcotest.test_case "generator determinism" `Quick test_deterministic_generators;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    Alcotest.test_case "mean degree" `Quick test_mean_degree;
    Alcotest.test_case "reciprocity" `Quick test_reciprocity_values;
    Alcotest.test_case "clustering" `Quick test_clustering_complete;
    Alcotest.test_case "power-law exponent" `Quick test_power_law_exponent;
  ]
