(* Tests for Numerics.Rng: determinism, distributional sanity and the
   combinatorial helpers. *)

open Numerics

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = Array.init 16 (fun _ -> Rng.float a) in
  let ys = Array.init 16 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "different seeds differ" false (xs = ys)

let test_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.float a in
  let b = Rng.copy a in
  check_float "copy continues identically" (Rng.float a) (Rng.float b);
  let _ = Rng.float a in
  (* advancing a further must not touch b *)
  let before = Rng.copy b in
  check_float "b unaffected" (Rng.float before) (Rng.float b)

let test_split_diverges () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  let xs = Array.init 32 (fun _ -> Rng.float a) in
  let ys = Array.init 32 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0. || x >= 1. then Alcotest.failf "float out of [0,1): %f" x
  done

let test_uniform_range () =
  let rng = Rng.create 12 in
  for _ = 1 to 1_000 do
    let x = Rng.uniform rng (-3.) 5. in
    if x < -3. || x >= 5. then Alcotest.failf "uniform out of range: %f" x
  done

let test_int_range_and_coverage () =
  let rng = Rng.create 13 in
  let counts = Array.make 7 0 in
  for _ = 1 to 14_000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7);
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 1500 || c > 2500 then
        Alcotest.failf "bucket %d badly unbalanced: %d" i c)
    counts

let test_bernoulli_mean () =
  let rng = Rng.create 14 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p close to 0.3" true (Float.abs (p -. 0.3) < 0.02)

let test_normal_moments () =
  let rng = Rng.create 15 in
  let xs = Array.init 50_000 (fun _ -> Rng.normal rng ~mu:2. ~sigma:3. ()) in
  let m = Stats.mean xs and s = Stats.std xs in
  Alcotest.(check bool) "mean ~ 2" true (Float.abs (m -. 2.) < 0.08);
  Alcotest.(check bool) "std ~ 3" true (Float.abs (s -. 3.) < 0.08)

let test_exponential_mean () =
  let rng = Rng.create 16 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential rng 2.) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean ~ 1/2" true (Float.abs (m -. 0.5) < 0.02);
  Alcotest.(check bool) "all positive" true (Array.for_all (fun x -> x >= 0.) xs)

let test_poisson_small_mean () =
  let rng = Rng.create 17 in
  let xs = Array.init 20_000 (fun _ -> float_of_int (Rng.poisson rng 3.5)) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean ~ 3.5" true (Float.abs (m -. 3.5) < 0.1)

let test_poisson_large_mean () =
  let rng = Rng.create 18 in
  let xs = Array.init 5_000 (fun _ -> float_of_int (Rng.poisson rng 200.)) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean ~ 200" true (Float.abs (m -. 200.) < 3.)

let test_pareto_support () =
  let rng = Rng.create 21 in
  for _ = 1 to 1_000 do
    let x = Rng.pareto rng ~alpha:2.5 ~x_min:1.5 in
    Alcotest.(check bool) "above x_min" true (x >= 1.5)
  done

let test_dirichlet_simplex () =
  let rng = Rng.create 22 in
  for _ = 1 to 200 do
    let p = Rng.dirichlet rng [| 1.0; 2.0; 0.5; 3.0 |] in
    let s = Array.fold_left ( +. ) 0. p in
    Alcotest.(check bool) "sums to 1" true (Float.abs (s -. 1.) < 1e-9);
    Alcotest.(check bool) "non-negative" true (Array.for_all (fun x -> x >= 0.) p)
  done

let test_shuffle_permutation () =
  let rng = Rng.create 23 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true (sorted = Array.init 100 Fun.id);
  Alcotest.(check bool) "actually moved" true (a <> Array.init 100 Fun.id)

let test_sample_without_replacement () =
  let rng = Rng.create 24 in
  (* exercise both the dense and sparse branches *)
  List.iter
    (fun (k, n) ->
      let s = Rng.sample_without_replacement rng k n in
      Alcotest.(check int) "size" k (Array.length s);
      let sorted = Array.copy s in
      Array.sort compare sorted;
      for i = 0 to k - 2 do
        if sorted.(i) = sorted.(i + 1) then Alcotest.fail "duplicate sample"
      done;
      Array.iter
        (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < n))
        s)
    [ (10, 12); (5, 1000); (0, 10); (10, 10) ]

let test_weighted_index () =
  let rng = Rng.create 25 in
  let w = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Rng.weighted_index rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never sampled" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  Alcotest.(check bool) "3:1 ratio" true (Float.abs (ratio -. 3.) < 0.3)

let test_choice () =
  let rng = Rng.create 26 in
  let a = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let x = Rng.choice rng a in
    Alcotest.(check bool) "member" true (Array.mem x a)
  done

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "uniform range" `Quick test_uniform_range;
    Alcotest.test_case "int range+coverage" `Quick test_int_range_and_coverage;
    Alcotest.test_case "bernoulli mean" `Quick test_bernoulli_mean;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "poisson small" `Quick test_poisson_small_mean;
    Alcotest.test_case "poisson large" `Quick test_poisson_large_mean;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "dirichlet simplex" `Quick test_dirichlet_simplex;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "weighted index" `Quick test_weighted_index;
    Alcotest.test_case "choice membership" `Quick test_choice;
  ]
