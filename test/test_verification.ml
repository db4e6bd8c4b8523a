(* Numerical verification: empirical convergence orders of the PDE
   solver against exact solutions, and parameter-uncertainty
   bootstrap.  These are the "is the discretisation actually
   second-order" checks a production solver ships with. *)

open Numerics

let heat_problem nx =
  (* u_t = d u_xx on [0, L], Neumann; exact solution
     u = 1 + a e^{-d (pi/L)^2 t} cos(pi x / L) *)
  let l = 2. and d = 0.3 and a = 0.5 in
  let exact x t =
    1. +. (a *. exp (-.d *. ((Float.pi /. l) ** 2.) *. t) *. cos (Float.pi *. x /. l))
  in
  let p =
    {
      Pde.xl = 0.;
      xr = l;
      nx;
      diffusion = (fun _ -> d);
      reaction = Pde.Custom (fun ~x:_ ~t:_ ~u:_ -> 0.);
      initial = (fun x -> exact x 0.);
      t0 = 0.;
    }
  in
  (p, exact)

let max_error_at sol exact t_index t =
  let err = ref 0. in
  Array.iteri
    (fun i x ->
      err := Float.max !err (Float.abs (sol.Pde.values.(t_index).(i) -. exact x t)))
    sol.Pde.xs;
  !err

let test_spatial_convergence_second_order () =
  (* fixed tiny dt; error should drop ~4x when dx halves *)
  let t_final = 0.5 in
  let error nx =
    let p, exact = heat_problem nx in
    let sol = Pde.solve ~scheme:(Pde.Imex 0.5) ~dt:1e-4 p ~times:[| t_final |] in
    max_error_at sol exact 1 t_final
  in
  let e1 = error 11 and e2 = error 21 and e3 = error 41 in
  let order12 = log (e1 /. e2) /. log 2. in
  let order23 = log (e2 /. e3) /. log 2. in
  Alcotest.(check bool)
    (Printf.sprintf "orders %.2f, %.2f near 2" order12 order23)
    true
    (order12 > 1.6 && order12 < 2.4 && order23 > 1.6 && order23 < 2.4)

let test_temporal_convergence_crank_nicolson () =
  (* fixed fine grid; CN error should drop ~4x when dt halves *)
  let t_final = 0.5 in
  let error dt =
    let p, exact = heat_problem 201 in
    let sol = Pde.solve ~scheme:(Pde.Imex 0.5) ~dt p ~times:[| t_final |] in
    max_error_at sol exact 1 t_final
  in
  (* subtract the (tiny) spatial floor by using large steps *)
  let e1 = error 0.05 and e2 = error 0.025 in
  let order = log (e1 /. e2) /. log 2. in
  (* a single smooth eigenmode can superconverge, so only assert the
     scheme is at least second order *)
  Alcotest.(check bool)
    (Printf.sprintf "CN temporal order %.2f >= 2" order)
    true (order > 1.5)

let test_strang_reaction_diffusion_convergence () =
  (* full DL-type problem: Strang splitting should be ~2nd order in dt.
     Reference = very fine dt solution. *)
  let k = 25. in
  let r t = (1.4 *. exp (-1.5 *. (t -. 1.))) +. 0.25 in
  let p =
    {
      Pde.xl = 1.;
      xr = 6.;
      nx = 81;
      diffusion = (fun _ -> 0.05);
      reaction = Pde.Custom (fun ~x:_ ~t ~u -> r t *. u *. (1. -. (u /. k)));
      initial = (fun x -> 8. *. exp (-0.8 *. (x -. 1.)) +. 0.3);
      t0 = 1.;
    }
  in
  let integral a b = Quadrature.simpson r ~a ~b ~n:8 in
  let scheme = Pde.Strang (Pde.logistic_reaction_step ~integral ~k) in
  let solve dt = (Pde.solve ~scheme ~dt p ~times:[| 3. |]).Pde.values.(1) in
  let reference = solve 1e-3 in
  let err dt =
    let u = solve dt in
    let e = ref 0. in
    Array.iteri (fun i v -> e := Float.max !e (Float.abs (v -. reference.(i)))) u;
    !e
  in
  let e1 = err 0.2 and e2 = err 0.1 in
  let order = log (e1 /. e2) /. log 2. in
  Alcotest.(check bool)
    (Printf.sprintf "Strang order %.2f >= ~2" order)
    true (order > 1.5)

let test_rk4_fourth_order () =
  (* y' = y: halving dt must cut the error ~16x *)
  let rhs = Ode.scalar_rhs (fun ~t:_ ~y -> y) in
  let error steps =
    let dt = 1. /. float_of_int steps in
    let y = ref [| 1. |] and t = ref 0. in
    for _ = 1 to steps do
      y := Ode.rk4_step rhs ~t:!t ~dt ~y:!y;
      t := !t +. dt
    done;
    Float.abs (!y.(0) -. exp 1.)
  in
  let order = log (error 8 /. error 16) /. log 2. in
  Alcotest.(check bool)
    (Printf.sprintf "RK4 order %.2f near 4" order)
    true
    (order > 3.5 && order < 4.5)

let test_euler_first_order () =
  let rhs = Ode.scalar_rhs (fun ~t:_ ~y -> y) in
  let error steps =
    let dt = 1. /. float_of_int steps in
    let y = ref [| 1. |] and t = ref 0. in
    for _ = 1 to steps do
      y := Ode.euler_step rhs ~t:!t ~dt ~y:!y;
      t := !t +. dt
    done;
    Float.abs (!y.(0) -. exp 1.)
  in
  let order = log (error 64 /. error 128) /. log 2. in
  Alcotest.(check bool)
    (Printf.sprintf "Euler order %.2f near 1" order)
    true
    (order > 0.8 && order < 1.2)

(* --- Fit.bootstrap --- *)

let fast_config =
  {
    Dl.Fit.default_config with
    starts = 1;
    solver_nx = 21;
    solver_dt = 0.1;
  }

let test_bootstrap_cis_contain_truth () =
  (* data generated by the DL model with known parameters; bootstrap
     CIs should cover (or at least bracket near) the truth *)
  let truth = Dl.Params.paper_hops in
  let phi =
    Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
      ~densities:[| 6.0; 3.1; 2.3; 1.2; 0.7; 0.4 |]
  in
  let times = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let sol = Dl.Model.solve truth ~phi ~times in
  let obs =
    {
      Socialnet.Density.distances = [| 1; 2; 3; 4; 5; 6 |];
      times;
      density =
        Array.map
          (fun x -> Array.map (fun t -> Dl.Model.predict sol ~x ~t) times)
          [| 1.; 2.; 3.; 4.; 5.; 6. |];
      population = Array.make 6 100;
    }
  in
  let u =
    Dl.Fit.bootstrap ~config:fast_config ~resamples:6 (Numerics.Rng.create 11)
      obs
  in
  Alcotest.(check int) "refit count" 6 (Array.length u.Dl.Fit.fits);
  let lo_k, hi_k = u.Dl.Fit.k_ci in
  Alcotest.(check bool) "K interval ordered" true (lo_k <= hi_k);
  (* on noise-free realisable data the intervals should be tight around
     plausible values: K within a factor ~2 of the truth *)
  Alcotest.(check bool)
    (Printf.sprintf "K CI [%.1f, %.1f] near 25" lo_k hi_k)
    true
    (hi_k > 15. && lo_k < 50.);
  let lo_r, hi_r = u.Dl.Fit.r1_ci in
  Alcotest.(check bool)
    (Printf.sprintf "r(1) CI [%.2f, %.2f] near 1.65" lo_r hi_r)
    true
    (hi_r > 1.0 && lo_r < 2.5)

let test_bootstrap_rejects_degenerate_obs () =
  let obs =
    {
      Socialnet.Density.distances = [| 1; 2 |];
      times = [| 1. |];
      density = [| [| 5. |]; [| 2. |] |];
      population = [| 10; 10 |];
    }
  in
  try
    ignore
      (Dl.Fit.bootstrap ~config:fast_config ~resamples:2
         (Numerics.Rng.create 1) obs);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "spatial order 2" `Slow test_spatial_convergence_second_order;
    Alcotest.test_case "CN temporal order 2" `Slow test_temporal_convergence_crank_nicolson;
    Alcotest.test_case "Strang order" `Slow test_strang_reaction_diffusion_convergence;
    Alcotest.test_case "RK4 order 4" `Quick test_rk4_fourth_order;
    Alcotest.test_case "Euler order 1" `Quick test_euler_first_order;
    Alcotest.test_case "bootstrap CIs" `Slow test_bootstrap_cis_contain_truth;
    Alcotest.test_case "bootstrap degenerate" `Quick test_bootstrap_rejects_degenerate_obs;
  ]
