(* Tests for Numerics.Vec, Numerics.Mat and Numerics.Tridiag, including
   qcheck properties cross-checking the Thomas algorithm against dense
   LU. *)

open Numerics

let checkf = Alcotest.(check (float 1e-9))

(* --- Vec --- *)

let test_linspace () =
  let v = Vec.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Vec.dim v);
  checkf "first" 0. v.(0);
  checkf "last" 1. v.(4);
  checkf "step" 0.25 (v.(1) -. v.(0))

let test_vec_arith () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  Alcotest.(check bool) "add" true (Vec.approx_equal (Vec.add x y) [| 5.; 7.; 9. |]);
  Alcotest.(check bool) "sub" true (Vec.approx_equal (Vec.sub y x) [| 3.; 3.; 3. |]);
  Alcotest.(check bool) "mul" true (Vec.approx_equal (Vec.mul x y) [| 4.; 10.; 18. |]);
  Alcotest.(check bool) "scale" true (Vec.approx_equal (Vec.scale 2. x) [| 2.; 4.; 6. |]);
  checkf "dot" 32. (Vec.dot x y);
  checkf "sum" 6. (Vec.sum x);
  checkf "mean" 2. (Vec.mean x)

let test_vec_norms () =
  let x = [| 3.; -4. |] in
  checkf "norm2" 5. (Vec.norm2 x);
  checkf "norm_inf" 4. (Vec.norm_inf x);
  checkf "dist2" 5. (Vec.dist2 x [| 0.; 0. |])

let test_vec_axpy () =
  let x = [| 1.; 2. |] and y = [| 10.; 20. |] in
  Alcotest.(check bool) "axpy" true
    (Vec.approx_equal (Vec.axpy 3. x y) [| 13.; 26. |]);
  let y' = Array.copy y in
  Vec.axpy_inplace 3. x y';
  Alcotest.(check bool) "axpy_inplace" true (Vec.approx_equal y' [| 13.; 26. |])

let test_vec_extrema () =
  let x = [| 3.; -1.; 7.; 2. |] in
  checkf "max" 7. (Vec.max x);
  checkf "min" (-1.) (Vec.min x)

let test_vec_clamp () =
  let x = [| -2.; 0.5; 3. |] in
  Alcotest.(check bool) "clamp" true
    (Vec.approx_equal (Vec.clamp ~lo:0. ~hi:1. x) [| 0.; 0.5; 1. |])

(* --- Mat --- *)

let test_solve_known_system () =
  (* 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3 *)
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Mat.solve a [| 5.; 10. |] in
  Alcotest.(check bool) "solution" true (Vec.approx_equal ~tol:1e-9 x [| 1.; 3. |])

let test_solve_needs_pivoting () =
  (* zero leading pivot forces a row swap *)
  let a = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Mat.solve a [| 2.; 3. |] in
  Alcotest.(check bool) "solution" true (Vec.approx_equal x [| 3.; 2. |])

let test_singular_raises () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Mat.Singular (fun () ->
      ignore (Mat.solve a [| 1.; 1. |]))

(* --- Tridiag --- *)

let test_tridiag_known () =
  (* [[2;1;0];[1;2;1];[0;1;2]] x = [4;8;8] => x = [1;2;3] *)
  let sys =
    Tridiag.make ~sub:[| 1.; 1. |] ~diag:[| 2.; 2.; 2. |] ~sup:[| 1.; 1. |]
  in
  let x = Tridiag.solve sys [| 4.; 8.; 8. |] in
  Alcotest.(check bool) "solution" true (Vec.approx_equal ~tol:1e-9 x [| 1.; 2.; 3. |])

let test_tridiag_mv_matches_dense () =
  let sys =
    Tridiag.make ~sub:[| 0.5; -1. |] ~diag:[| 3.; 4.; 5. |] ~sup:[| 2.; 0.25 |]
  in
  let x = [| 1.; -2.; 3. |] in
  let dense = Tridiag.to_dense sys in
  Alcotest.(check bool) "mv = dense mv" true
    (Vec.approx_equal (Tridiag.mv sys x) (Mat.mv dense x))

let test_tridiag_single () =
  let sys = Tridiag.make ~sub:[||] ~diag:[| 4. |] ~sup:[||] in
  let x = Tridiag.solve sys [| 8. |] in
  checkf "1x1 system" 2. x.(0)

(* qcheck: Thomas algorithm agrees with dense LU on random diagonally
   dominant systems. *)
let prop_tridiag_vs_dense =
  QCheck.Test.make ~count:200 ~name:"tridiag solve matches dense LU"
    QCheck.(
      pair (int_range 2 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let sub = Array.init (n - 1) (fun _ -> Rng.uniform rng (-1.) 1.) in
      let sup = Array.init (n - 1) (fun _ -> Rng.uniform rng (-1.) 1.) in
      let diag =
        Array.init n (fun i ->
            let off =
              (if i > 0 then Float.abs sub.(i - 1) else 0.)
              +. if i < n - 1 then Float.abs sup.(i) else 0.
            in
            (off +. 1.) *. if Rng.bool rng then 1. else -1.)
      in
      let b = Array.init n (fun _ -> Rng.uniform rng (-5.) 5.) in
      let sys = Tridiag.make ~sub ~diag ~sup in
      let x_thomas = Tridiag.solve sys b in
      let x_dense = Mat.solve (Tridiag.to_dense sys) b in
      Vec.approx_equal ~tol:1e-7 x_thomas x_dense)

let prop_lu_roundtrip =
  QCheck.Test.make ~count:200 ~name:"solve then multiply recovers rhs"
    QCheck.(pair (int_range 1 10) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      (* random diagonally dominant matrix: always solvable *)
      let a =
        Mat.init n n (fun i j ->
            if i = j then float_of_int n +. Rng.float rng
            else Rng.uniform rng (-1.) 1.)
      in
      let b = Array.init n (fun _ -> Rng.uniform rng (-5.) 5.) in
      let x = Mat.solve a b in
      Vec.approx_equal ~tol:1e-6 (Mat.mv a x) b)

let suite =
  [
    Alcotest.test_case "linspace" `Quick test_linspace;
    Alcotest.test_case "vec arithmetic" `Quick test_vec_arith;
    Alcotest.test_case "vec norms" `Quick test_vec_norms;
    Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
    Alcotest.test_case "vec extrema" `Quick test_vec_extrema;
    Alcotest.test_case "vec clamp" `Quick test_vec_clamp;
    Alcotest.test_case "solve 2x2" `Quick test_solve_known_system;
    Alcotest.test_case "solve with pivoting" `Quick test_solve_needs_pivoting;
    Alcotest.test_case "singular raises" `Quick test_singular_raises;
    Alcotest.test_case "tridiag known" `Quick test_tridiag_known;
    Alcotest.test_case "tridiag mv" `Quick test_tridiag_mv_matches_dense;
    Alcotest.test_case "tridiag 1x1" `Quick test_tridiag_single;
    QCheck_alcotest.to_alcotest prop_tridiag_vs_dense;
    QCheck_alcotest.to_alcotest prop_lu_roundtrip;
  ]
