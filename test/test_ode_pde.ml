(* Tests for Numerics.Ode, Numerics.Quadrature and Numerics.Pde —
   integrators against closed forms, and the reaction-diffusion solver
   against the invariants the paper's theory requires (bounds,
   monotonicity, mass conservation, Neumann no-flux). *)

open Numerics

let checkf tol = Alcotest.(check (float tol))

(* --- Quadrature --- *)

let test_trapezoid_polynomial () =
  (* trapezoid is exact on affine functions *)
  let f x = (3. *. x) +. 2. in
  (* integral of 3x + 2 over [0,1] is 3/2 + 2 *)
  checkf 1e-12 "affine exact" 3.5 (Quadrature.trapezoid f ~a:0. ~b:1. ~n:7)

let test_simpson_cubic_exact () =
  (* Simpson is exact on cubics *)
  let f x = (x ** 3.) -. (2. *. x) +. 1. in
  let exact = (1. /. 4.) -. 1. +. 1. in
  checkf 1e-12 "cubic exact" exact (Quadrature.simpson f ~a:0. ~b:1. ~n:4)

let test_simpson_sin () =
  checkf 1e-6 "sin over [0,pi]" 2.
    (Quadrature.simpson sin ~a:0. ~b:Float.pi ~n:100)

let test_adaptive_simpson () =
  checkf 1e-8 "exp over [0,1]" (exp 1. -. 1.)
    (Quadrature.adaptive_simpson exp ~a:0. ~b:1.);
  checkf 1e-8 "peaked integrand" (atan 50. *. 2.)
    (Quadrature.adaptive_simpson
       (fun x -> 50. /. (1. +. (2500. *. x *. x)))
       ~a:(-1.) ~b:1.)

let test_trapezoid_sampled () =
  let xs = [| 0.; 1.; 3. |] and ys = [| 0.; 2.; 2. |] in
  checkf 1e-12 "piecewise" 5. (Quadrature.trapezoid_sampled ~xs ~ys)

let test_cumulative_trapezoid () =
  let xs = [| 0.; 1.; 2. |] and ys = [| 1.; 1.; 3. |] in
  let c = Quadrature.cumulative_trapezoid ~xs ~ys in
  checkf 1e-12 "zero start" 0. c.(0);
  checkf 1e-12 "first" 1. c.(1);
  checkf 1e-12 "second" 3. c.(2)

(* --- Ode --- *)

let test_rk4_exponential () =
  (* y' = y, y(0) = 1 -> e^t *)
  let rhs = Ode.scalar_rhs (fun ~t:_ ~y -> y) in
  let out = Ode.integrate rhs ~y0:[| 1. |] ~t0:0. ~times:[| 1.; 2. |] in
  let _, y1 = out.(0) and _, y2 = out.(1) in
  checkf 1e-5 "e^1" (exp 1.) y1.(0);
  checkf 1e-4 "e^2" (exp 2.) y2.(0)

let test_euler_first_order () =
  (* Euler converges with order 1: halving dt halves the error. *)
  let rhs = Ode.scalar_rhs (fun ~t:_ ~y -> y) in
  let run times =
    let out = Ode.integrate ~step:`Euler rhs ~y0:[| 1. |] ~t0:0. ~times in
    let _, y = out.(Array.length out - 1) in
    Float.abs (y.(0) -. exp 1.)
  in
  let coarse = run [| 1. |] in
  Alcotest.(check bool) "euler reasonably accurate" true (coarse < 0.05)

let test_rk4_system () =
  (* Harmonic oscillator: x'' = -x as a 2-system; energy preserved well *)
  let rhs ~t:_ ~(y : Vec.t) = [| y.(1); -.y.(0) |] in
  let out = Ode.integrate rhs ~y0:[| 1.; 0. |] ~t0:0. ~times:[| Float.pi *. 2. |] in
  let _, y = out.(0) in
  checkf 1e-4 "x after full period" 1. y.(0);
  checkf 1e-4 "v after full period" 0. y.(1)

let test_rkf45_matches_closed_form () =
  let rhs = Ode.scalar_rhs (fun ~t:_ ~y -> 0.8 *. y *. (1. -. (y /. 10.))) in
  let y = Ode.rkf45 rhs ~y0:[| 0.5 |] ~t0:0. ~t1:5. in
  checkf 1e-6 "rkf45 logistic" (Ode.logistic ~r:0.8 ~k:10. ~n0:0.5 5.) y.(0)

let test_logistic_properties () =
  let k = 25. and r = 0.9 and n0 = 2. in
  checkf 1e-12 "initial value" n0 (Ode.logistic ~r ~k ~n0 0.);
  checkf 1e-6 "saturates at K" k (Ode.logistic ~r ~k ~n0 50.);
  checkf 1e-12 "zero stays zero" 0. (Ode.logistic ~r ~k ~n0:0. 10.);
  (* monotone increasing from below K *)
  let prev = ref n0 in
  for i = 1 to 20 do
    let t = float_of_int i /. 2. in
    let v = Ode.logistic ~r ~k ~n0 t in
    Alcotest.(check bool) "increasing" true (v >= !prev);
    prev := v
  done

let test_logistic_varying_r_reduces_to_constant () =
  let k = 10. and n0 = 1. in
  let v1 = Ode.logistic ~r:0.5 ~k ~n0 3. in
  let v2 = Ode.logistic_varying_r ~r_integral:(fun t -> 0.5 *. t) ~k ~n0 3. in
  checkf 1e-12 "constant-r consistency" v1 v2

let test_logistic_varying_r_vs_rk4 () =
  (* r(t) = the paper's Fig 6 rate; closed form must match RK4. *)
  let r t = (1.4 *. exp (-1.5 *. (t -. 1.))) +. 0.25 in
  let k = 25. in
  let rhs = Ode.scalar_rhs (fun ~t ~y -> r t *. y *. (1. -. (y /. k))) in
  let out = Ode.integrate rhs ~y0:[| 2. |] ~t0:1. ~times:[| 6. |] in
  let _, y = out.(0) in
  let r_integral t = Quadrature.simpson r ~a:1. ~b:t ~n:200 in
  let closed = Ode.logistic_varying_r ~r_integral ~k ~n0:2. 6. in
  checkf 1e-4 "closed form vs RK4" closed y.(0)

(* --- Pde --- *)

let gaussian_problem d nx =
  {
    Pde.xl = 0.;
    xr = 10.;
    nx;
    diffusion = (fun _ -> d);
    reaction = Pde.Custom (fun ~x:_ ~t:_ ~u:_ -> 0.);
    initial = (fun x -> exp (-.((x -. 5.) ** 2.)));
    t0 = 0.;
  }

let test_pure_diffusion_mass_conserved () =
  List.iter
    (fun scheme ->
      let sol =
        Pde.solve ~scheme ~dt:1e-3 (gaussian_problem 0.5 101)
          ~times:[| 0.5; 1.; 2. |]
      in
      let m0 = Pde.mass sol ~it:0 in
      for it = 1 to Array.length sol.Pde.ts - 1 do
        checkf 1e-6 "mass conserved" m0 (Pde.mass sol ~it)
      done)
    [ Pde.Ftcs; Pde.Imex 0.5; Pde.Imex 1. ]

let test_pure_diffusion_flattens () =
  let sol = Pde.solve ~dt:1e-3 (gaussian_problem 0.5 101) ~times:[| 5.; 50. |] in
  let spread u = Vec.max u -. Vec.min u in
  let s0 = spread sol.Pde.values.(0) in
  let s1 = spread sol.Pde.values.(1) in
  let s2 = spread sol.Pde.values.(2) in
  Alcotest.(check bool) "spread decreases" true (s1 < s0 && s2 < s1);
  (* long-time limit: uniform at the mean *)
  let final = sol.Pde.values.(2) in
  let mean_val = Vec.mean final in
  Alcotest.(check bool) "near uniform" true (spread final < 0.05 *. mean_val +. 1e-3)

let test_heat_equation_decay_rate () =
  (* With Neumann BCs on [0, L], the mode cos(pi x / L) decays at rate
     d (pi/L)^2 — a quantitative accuracy check, not just an invariant. *)
  let l = 2. and d = 0.3 in
  let p =
    {
      Pde.xl = 0.;
      xr = l;
      nx = 201;
      diffusion = (fun _ -> d);
      reaction = Pde.Custom (fun ~x:_ ~t:_ ~u:_ -> 0.);
      initial = (fun x -> 1. +. (0.5 *. cos (Float.pi *. x /. l)));
      t0 = 0.;
    }
  in
  let t_final = 1.0 in
  let sol = Pde.solve ~scheme:(Pde.Imex 0.5) ~dt:5e-4 p ~times:[| t_final |] in
  let lambda = d *. ((Float.pi /. l) ** 2.) in
  let expected x =
    1. +. (0.5 *. exp (-.lambda *. t_final) *. cos (Float.pi *. x /. l))
  in
  Array.iteri
    (fun i x -> checkf 1e-3 "mode decay" (expected x) sol.Pde.values.(1).(i))
    sol.Pde.xs

let test_reaction_only_logistic () =
  (* d = 0: every grid point follows the scalar logistic. *)
  let r0 = 0.9 and k = 25. in
  let p =
    {
      Pde.xl = 1.;
      xr = 5.;
      nx = 41;
      diffusion = (fun _ -> 0.);
      reaction = Pde.Custom (fun ~x:_ ~t:_ ~u -> r0 *. u *. (1. -. (u /. k)));
      initial = (fun x -> 1. +. (0.1 *. x));
      t0 = 0.;
    }
  in
  List.iter
    (fun scheme ->
      let sol = Pde.solve ~scheme ~dt:1e-3 p ~times:[| 2. |] in
      Array.iteri
        (fun i x ->
          let n0 = 1. +. (0.1 *. x) in
          checkf 1e-3 "pointwise logistic"
            (Ode.logistic ~r:r0 ~k ~n0 2.)
            sol.Pde.values.(1).(i))
        sol.Pde.xs)
    [ Pde.Ftcs; Pde.Imex 0.5;
      Pde.Strang
        (Pde.logistic_reaction_step ~integral:(fun a b -> r0 *. (b -. a)) ~k) ]

let test_schemes_agree () =
  (* Full DL-type problem: all three schemes converge to the same
     solution. *)
  let r t = (1.4 *. exp (-1.5 *. (t -. 1.))) +. 0.25 in
  let k = 25. in
  let p =
    {
      Pde.xl = 1.;
      xr = 6.;
      nx = 51;
      diffusion = (fun _ -> 0.05);
      reaction = Pde.Custom (fun ~x:_ ~t ~u -> r t *. u *. (1. -. (u /. k)));
      initial = (fun x -> 8. *. exp (-0.5 *. (x -. 1.)));
      t0 = 1.;
    }
  in
  let times = [| 3.; 6. |] in
  let ftcs = Pde.solve ~scheme:Pde.Ftcs ~dt:2e-4 p ~times in
  let imex = Pde.solve ~scheme:(Pde.Imex 0.5) ~dt:2e-4 p ~times in
  let strang =
    Pde.solve
      ~scheme:
        (Pde.Strang
           (Pde.logistic_reaction_step
              ~integral:(fun a b -> Quadrature.simpson r ~a ~b ~n:8)
              ~k))
      ~dt:2e-4 p ~times
  in
  for it = 1 to 2 do
    for ix = 0 to 50 do
      checkf 5e-3 "ftcs vs imex" ftcs.Pde.values.(it).(ix) imex.Pde.values.(it).(ix);
      checkf 5e-3 "imex vs strang" imex.Pde.values.(it).(ix)
        strang.Pde.values.(it).(ix)
    done
  done

let test_dl_bounds_invariant () =
  (* Unique Property (paper, Sec II.C): 0 <= I <= K for initial data in
     [0, K]. *)
  let k = 25. in
  let p =
    {
      Pde.xl = 1.;
      xr = 6.;
      nx = 51;
      diffusion = (fun _ -> 0.01);
      reaction = Pde.Custom (fun ~x:_ ~t:_ ~u -> 0.9 *. u *. (1. -. (u /. k)));
      initial = (fun x -> 12. *. exp (-0.8 *. (x -. 1.)) +. 0.5);
      t0 = 1.;
    }
  in
  let sol = Pde.solve ~dt:1e-3 p ~times:(Array.init 10 (fun i -> 2. +. float_of_int i)) in
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) "0 <= I <= K" true (v >= -1e-9 && v <= k +. 1e-9))
        row)
    sol.Pde.values

let test_dl_monotone_in_time () =
  (* Strictly Increasing Property: with phi a lower solution (ample K,
     small d), the solution increases in t at every x. *)
  let k = 25. in
  let r t = (1.4 *. exp (-1.5 *. (t -. 1.))) +. 0.25 in
  let p =
    {
      Pde.xl = 1.;
      xr = 6.;
      nx = 51;
      diffusion = (fun _ -> 0.01);
      reaction = Pde.Custom (fun ~x:_ ~t ~u -> r t *. u *. (1. -. (u /. k)));
      initial = (fun x -> (6. *. exp (-1.2 *. (x -. 1.))) +. 0.3);
      t0 = 1.;
    }
  in
  let sol = Pde.solve ~dt:1e-3 p ~times:(Array.init 8 (fun i -> float_of_int (i + 2))) in
  let nt = Array.length sol.Pde.ts in
  for it = 1 to nt - 1 do
    for ix = 0 to 50 do
      Alcotest.(check bool) "monotone in t" true
        (sol.Pde.values.(it).(ix) >= sol.Pde.values.(it - 1).(ix) -. 1e-9)
    done
  done

let test_cfl_limit () =
  let p = gaussian_problem 0.5 101 in
  let h = 10. /. 100. in
  checkf 1e-12 "cfl formula" (h *. h /. (2. *. 0.5)) (Pde.cfl_limit p);
  Alcotest.(check bool) "no diffusion -> infinite cfl" true
    (Float.is_integer
       (if Float.is_finite (Pde.cfl_limit (gaussian_problem 0. 11)) then 0. else 1.)
     && not (Float.is_finite (Pde.cfl_limit (gaussian_problem 0. 11))))

let test_eval_and_snapshot () =
  let sol = Pde.solve ~dt:1e-3 (gaussian_problem 0.1 41) ~times:[| 1. |] in
  let v = Pde.eval sol ~x:5. ~t:0. in
  checkf 1e-9 "eval at grid node" 1. v;
  let snap = Pde.snapshot sol ~t:0.9 in
  Alcotest.(check int) "snapshot length" 41 (Array.length snap);
  Alcotest.(check bool) "snapshot picks nearest time" true
    (Vec.approx_equal snap sol.Pde.values.(1))

let test_variable_diffusion_mass () =
  (* Variable d(x) (the paper's future-work case) still conserves mass
     under no-flux boundaries. *)
  let p =
    {
      Pde.xl = 0.;
      xr = 4.;
      nx = 81;
      diffusion = (fun x -> 0.05 +. (0.2 *. x /. 4.));
      reaction = Pde.Custom (fun ~x:_ ~t:_ ~u:_ -> 0.);
      initial = (fun x -> exp (-.((x -. 2.) ** 2.) *. 4.));
      t0 = 0.;
    }
  in
  let sol = Pde.solve ~scheme:(Pde.Imex 0.5) ~dt:1e-3 p ~times:[| 1.; 3. |] in
  let m0 = Pde.mass sol ~it:0 in
  checkf 1e-6 "mass t=1" m0 (Pde.mass sol ~it:1);
  checkf 1e-6 "mass t=3" m0 (Pde.mass sol ~it:2)

let test_invalid_theta_rejected () =
  (try
     ignore (Pde.solve ~scheme:(Pde.Imex 0.2) (gaussian_problem 0.1 11) ~times:[| 1. |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let suite =
  [
    Alcotest.test_case "trapezoid affine" `Quick test_trapezoid_polynomial;
    Alcotest.test_case "simpson cubic" `Quick test_simpson_cubic_exact;
    Alcotest.test_case "simpson sin" `Quick test_simpson_sin;
    Alcotest.test_case "adaptive simpson" `Quick test_adaptive_simpson;
    Alcotest.test_case "trapezoid sampled" `Quick test_trapezoid_sampled;
    Alcotest.test_case "cumulative trapezoid" `Quick test_cumulative_trapezoid;
    Alcotest.test_case "rk4 exponential" `Quick test_rk4_exponential;
    Alcotest.test_case "euler accuracy" `Quick test_euler_first_order;
    Alcotest.test_case "rk4 oscillator" `Quick test_rk4_system;
    Alcotest.test_case "rkf45 logistic" `Quick test_rkf45_matches_closed_form;
    Alcotest.test_case "logistic properties" `Quick test_logistic_properties;
    Alcotest.test_case "varying-r reduces" `Quick test_logistic_varying_r_reduces_to_constant;
    Alcotest.test_case "varying-r vs rk4" `Quick test_logistic_varying_r_vs_rk4;
    Alcotest.test_case "diffusion mass" `Quick test_pure_diffusion_mass_conserved;
    Alcotest.test_case "diffusion flattens" `Quick test_pure_diffusion_flattens;
    Alcotest.test_case "heat decay rate" `Quick test_heat_equation_decay_rate;
    Alcotest.test_case "reaction-only logistic" `Quick test_reaction_only_logistic;
    Alcotest.test_case "schemes agree" `Slow test_schemes_agree;
    Alcotest.test_case "DL bounds invariant" `Quick test_dl_bounds_invariant;
    Alcotest.test_case "DL monotone in time" `Quick test_dl_monotone_in_time;
    Alcotest.test_case "cfl limit" `Quick test_cfl_limit;
    Alcotest.test_case "eval and snapshot" `Quick test_eval_and_snapshot;
    Alcotest.test_case "variable diffusion" `Quick test_variable_diffusion_mass;
    Alcotest.test_case "invalid theta" `Quick test_invalid_theta_rejected;
  ]
