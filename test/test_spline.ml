(* Tests for Numerics.Spline and Numerics.Interp: interpolation
   exactness, smoothness at knots, the paper's flat-end construction,
   and extrapolation modes. *)

open Numerics

let checkf = Alcotest.(check (float 1e-9))
let checkf_loose = Alcotest.(check (float 1e-6))

let xs5 = [| 0.; 1.; 2.; 3.; 4. |]
let ys5 = [| 1.; 3.; 2.; 5.; 4. |]

let test_interpolates_knots () =
  let s = Spline.make ~xs:xs5 ~ys:ys5 () in
  Array.iteri (fun i x -> checkf "knot value" ys5.(i) (Spline.eval s x)) xs5

let test_linear_data_stays_linear () =
  (* A natural spline through affine data is that affine function. *)
  let xs = [| 0.; 1.; 2.5; 4. |] in
  let ys = Array.map (fun x -> (2. *. x) -. 1.) xs in
  let s = Spline.make ~xs ~ys () in
  List.iter
    (fun x ->
      checkf_loose "affine reproduction" ((2. *. x) -. 1.) (Spline.eval s x);
      checkf_loose "affine slope" 2. (Spline.deriv s x))
    [ 0.3; 1.7; 3.9 ]

let test_natural_boundary () =
  let s = Spline.make ~boundary:Spline.Natural ~xs:xs5 ~ys:ys5 () in
  checkf_loose "left M = 0" 0. (Spline.second_deriv s 0.);
  checkf_loose "right M = 0" 0. (Spline.second_deriv s 4.)

let test_clamped_boundary () =
  let s =
    Spline.make ~boundary:(Spline.Clamped (1.5, -2.)) ~xs:xs5 ~ys:ys5 ()
  in
  checkf_loose "left slope" 1.5 (Spline.deriv s 0.);
  checkf_loose "right slope" (-2.) (Spline.deriv s 4.)

let test_flat_ends_paper_requirements () =
  (* The paper requires phi'(l) = phi'(L) = 0 after the flat-end
     construction (Section II.D, requirement ii). *)
  let densities = [| 12.3; 4.1; 5.6; 2.0; 1.1 |] in
  let s = Spline.flat_ends ~xs:[| 1.; 2.; 3.; 4.; 5. |] ~ys:densities in
  checkf_loose "phi'(l) = 0" 0. (Spline.deriv s 1.);
  checkf_loose "phi'(L) = 0" 0. (Spline.deriv s 5.);
  (* flat extension beyond the ends *)
  checkf "left of domain" densities.(0) (Spline.eval s 0.);
  checkf "right of domain" densities.(4) (Spline.eval s 9.);
  checkf "derivative outside" 0. (Spline.deriv s 0.)

let test_c1_continuity_at_knots () =
  let s = Spline.make ~xs:xs5 ~ys:ys5 () in
  let eps = 1e-7 in
  for i = 1 to 3 do
    let x = xs5.(i) in
    let left = Spline.deriv s (x -. eps) and right = Spline.deriv s (x +. eps) in
    Alcotest.(check bool) "C1 at knot" true (Float.abs (left -. right) < 1e-4)
  done

let test_c2_continuity_at_knots () =
  let s = Spline.make ~xs:xs5 ~ys:ys5 () in
  let eps = 1e-7 in
  for i = 1 to 3 do
    let x = xs5.(i) in
    let left = Spline.second_deriv s (x -. eps)
    and right = Spline.second_deriv s (x +. eps) in
    Alcotest.(check bool) "C2 at knot" true (Float.abs (left -. right) < 1e-3)
  done

let test_derivative_consistency () =
  (* deriv matches a central finite difference of eval *)
  let s = Spline.make ~xs:xs5 ~ys:ys5 () in
  let h = 1e-6 in
  List.iter
    (fun x ->
      let fd = (Spline.eval s (x +. h) -. Spline.eval s (x -. h)) /. (2. *. h) in
      Alcotest.(check bool) "deriv ~ FD" true
        (Float.abs (fd -. Spline.deriv s x) < 1e-5))
    [ 0.5; 1.5; 2.2; 3.7 ]

let test_second_derivative_consistency () =
  let s = Spline.make ~xs:xs5 ~ys:ys5 () in
  let h = 1e-4 in
  List.iter
    (fun x ->
      let fd =
        (Spline.eval s (x +. h) -. (2. *. Spline.eval s x) +. Spline.eval s (x -. h))
        /. (h *. h)
      in
      Alcotest.(check bool) "second_deriv ~ FD" true
        (Float.abs (fd -. Spline.second_deriv s x) < 1e-3))
    [ 0.5; 1.5; 2.2; 3.7 ]

let test_linear_extrapolation () =
  let s =
    Spline.make ~extrapolation:Spline.Linear
      ~boundary:(Spline.Clamped (2., -1.)) ~xs:[| 0.; 1.; 2. |]
      ~ys:[| 0.; 1.; 1. |] ()
  in
  (* outside-left continues with slope 2 from (0, 0) *)
  checkf_loose "left linear" (-2.) (Spline.eval s (-1.));
  checkf_loose "left slope" 2. (Spline.deriv s (-1.));
  (* outside-right continues with slope -1 from (2, 1) *)
  checkf_loose "right linear" 0. (Spline.eval s 3.);
  checkf_loose "right slope" (-1.) (Spline.deriv s 3.)

let test_error_extrapolation () =
  let s =
    Spline.make ~extrapolation:Spline.Error ~xs:[| 0.; 1. |] ~ys:[| 0.; 1. |] ()
  in
  (try
     ignore (Spline.eval s 2.);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  checkf "inside ok" 0.5 (Spline.eval s 0.5)

let test_rejects_bad_input () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Spline.make ~xs:[| 0. |] ~ys:[| 1. |] ());
  expect_invalid (fun () -> Spline.make ~xs:[| 0.; 0. |] ~ys:[| 1.; 2. |] ());
  expect_invalid (fun () -> Spline.make ~xs:[| 1.; 0. |] ~ys:[| 1.; 2. |] ());
  expect_invalid (fun () -> Spline.make ~xs:[| 0.; 1. |] ~ys:[| 1. |] ())

let test_two_point_spline () =
  let s = Spline.make ~xs:[| 0.; 2. |] ~ys:[| 1.; 5. |] () in
  checkf_loose "midpoint of linear" 3. (Spline.eval s 1.)

let test_domain_and_knots () =
  let s = Spline.make ~xs:xs5 ~ys:ys5 () in
  let l, r = Spline.domain s in
  checkf "left" 0. l;
  checkf "right" 4. r;
  Alcotest.(check int) "knot count" 5 (Array.length (Spline.knots s))

(* --- Interp --- *)

let test_interp_linear () =
  let xs = [| 0.; 1.; 3. |] and ys = [| 0.; 10.; 30. |] in
  checkf "midpoint" 5. (Interp.linear ~xs ~ys 0.5);
  checkf "second segment" 20. (Interp.linear ~xs ~ys 2.);
  checkf "clamp left" 0. (Interp.linear ~xs ~ys (-1.));
  checkf "clamp right" 30. (Interp.linear ~xs ~ys 4.)

let test_interp_bilinear () =
  let xs = [| 0.; 1. |] and ts = [| 0.; 1. |] in
  let values = [| [| 0.; 1. |]; [| 2.; 3. |] |] in
  checkf "corner 00" 0. (Interp.bilinear ~xs ~ts ~values 0. 0.);
  checkf "corner 11" 3. (Interp.bilinear ~xs ~ts ~values 1. 1.);
  checkf "centre" 1.5 (Interp.bilinear ~xs ~ts ~values 0.5 0.5);
  checkf "clamped outside" 3. (Interp.bilinear ~xs ~ts ~values 5. 5.)

(* qcheck: spline interpolates random strictly increasing data at the
   knots, for both boundary types. *)
let prop_knot_interpolation =
  QCheck.Test.make ~count:150 ~name:"spline passes through all knots"
    QCheck.(pair (int_range 2 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let xs = Array.make n 0. in
      for i = 1 to n - 1 do
        xs.(i) <- xs.(i - 1) +. Rng.uniform rng 0.1 2.
      done;
      let ys = Array.init n (fun _ -> Rng.uniform rng (-10.) 10.) in
      let boundary =
        if Rng.bool rng then Spline.Natural
        else Spline.Clamped (Rng.uniform rng (-2.) 2., Rng.uniform rng (-2.) 2.)
      in
      let s = Spline.make ~boundary ~xs ~ys () in
      Array.for_all2 (fun x y -> Float.abs (Spline.eval s x -. y) < 1e-7) xs ys)

let suite =
  [
    Alcotest.test_case "interpolates knots" `Quick test_interpolates_knots;
    Alcotest.test_case "affine data" `Quick test_linear_data_stays_linear;
    Alcotest.test_case "natural boundary" `Quick test_natural_boundary;
    Alcotest.test_case "clamped boundary" `Quick test_clamped_boundary;
    Alcotest.test_case "flat ends (paper)" `Quick test_flat_ends_paper_requirements;
    Alcotest.test_case "C1 at knots" `Quick test_c1_continuity_at_knots;
    Alcotest.test_case "C2 at knots" `Quick test_c2_continuity_at_knots;
    Alcotest.test_case "deriv vs FD" `Quick test_derivative_consistency;
    Alcotest.test_case "second deriv vs FD" `Quick test_second_derivative_consistency;
    Alcotest.test_case "linear extrapolation" `Quick test_linear_extrapolation;
    Alcotest.test_case "error extrapolation" `Quick test_error_extrapolation;
    Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
    Alcotest.test_case "two-point spline" `Quick test_two_point_spline;
    Alcotest.test_case "domain and knots" `Quick test_domain_and_knots;
    Alcotest.test_case "interp linear" `Quick test_interp_linear;
    Alcotest.test_case "interp bilinear" `Quick test_interp_bilinear;
    QCheck_alcotest.to_alcotest prop_knot_interpolation;
  ]
