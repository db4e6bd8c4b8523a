(* Tests for the core DL library: growth rates, parameters, phi
   construction and admissibility, the model solver against the paper's
   theory, accuracy tables, baselines, fitting and the pipeline. *)

open Numerics

let checkf tol = Alcotest.(check (float tol))

(* --- Growth --- *)

let test_growth_eval () =
  checkf 1e-12 "constant" 0.7 (Dl.Growth.eval (Dl.Growth.Constant 0.7) 3.);
  (* paper Eq. 7 at t = 1: 1.4 + 0.25 *)
  checkf 1e-12 "eq7 at t=1" 1.65 (Dl.Growth.eval Dl.Growth.paper_hops 1.);
  (* decays towards c *)
  checkf 1e-6 "eq7 tail" 0.25 (Dl.Growth.eval Dl.Growth.paper_hops 20.)

let test_growth_integral_matches_quadrature () =
  List.iter
    (fun r ->
      let numeric =
        Quadrature.simpson (Dl.Growth.eval r) ~a:1. ~b:6. ~n:400
      in
      checkf 1e-8 "closed form integral" numeric
        (Dl.Growth.integral r ~t0:1. ~t1:6.))
    [ Dl.Growth.Constant 0.4; Dl.Growth.paper_hops; Dl.Growth.paper_interest;
      Dl.Growth.Exp_decay { a = 2.; b = 0.; c = 0.3 } ]

(* --- Params --- *)

let test_params_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () ->
      Dl.Params.make ~d:(-0.1) ~k:25. ~r:(Dl.Growth.Constant 1.) ~l:1. ~big_l:6.);
  expect_invalid (fun () ->
      Dl.Params.make ~d:0.1 ~k:0. ~r:(Dl.Growth.Constant 1.) ~l:1. ~big_l:6.);
  expect_invalid (fun () ->
      Dl.Params.make ~d:0.1 ~k:25. ~r:(Dl.Growth.Constant 1.) ~l:6. ~big_l:1.)

let test_paper_params () =
  checkf 1e-12 "hops d" 0.01 Dl.Params.paper_hops.Dl.Params.d;
  checkf 1e-12 "hops K" 25. Dl.Params.paper_hops.Dl.Params.k;
  checkf 1e-12 "interest d" 0.05 Dl.Params.paper_interest.Dl.Params.d;
  checkf 1e-12 "interest K" 60. Dl.Params.paper_interest.Dl.Params.k;
  let p = Dl.Params.with_domain Dl.Params.paper_hops ~l:1. ~big_l:4. in
  checkf 1e-12 "domain changed" 4. p.Dl.Params.big_l

(* --- Initial --- *)

let paper_like_phi () =
  (* a typical decreasing density profile like the paper's s1 *)
  Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
    ~densities:[| 6.0; 3.1; 2.3; 1.2; 0.7; 0.4 |]

let test_phi_interpolates () =
  let phi = paper_like_phi () in
  checkf 1e-9 "knot 1" 6.0 (Dl.Initial.eval phi 1.);
  checkf 1e-9 "knot 4" 1.2 (Dl.Initial.eval phi 4.)

let test_phi_flat_ends () =
  let phi = paper_like_phi () in
  checkf 1e-7 "left slope" 0. (Dl.Initial.deriv phi 1.);
  checkf 1e-7 "right slope" 0. (Dl.Initial.deriv phi 6.)

let test_phi_admissibility_report () =
  let phi = paper_like_phi () in
  let report = Dl.Initial.check phi ~params:Dl.Params.paper_hops in
  Alcotest.(check bool) "end slopes" true report.Dl.Initial.end_slopes_zero;
  Alcotest.(check bool) "non-negative" true report.Dl.Initial.non_negative;
  (* K = 25 is ample and d << r, the paper's own argument for Eq. 6 *)
  Alcotest.(check bool) "lower solution" true report.Dl.Initial.lower_solution

let test_phi_floor () =
  (* steep drop to zero would undershoot; the floor must hold *)
  let phi =
    Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4. |]
      ~densities:[| 10.; 0.1; 0.; 0. |]
  in
  let xs = Vec.linspace 1. 4. 301 in
  Array.iter
    (fun x ->
      Alcotest.(check bool) "phi >= 0" true (Dl.Initial.eval phi x >= 0.))
    xs

let test_phi_rejects_bad_input () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () ->
      Dl.Initial.of_observations ~xs:[| 1.; 2. |] ~densities:[| -1.; 2. |]);
  expect_invalid (fun () ->
      Dl.Initial.of_observations ~xs:[| 1.; 2. |] ~densities:[| 0.; 0. |])

(* --- Model --- *)

let solve_paper ?scheme () =
  let phi = paper_like_phi () in
  Dl.Model.solve ?scheme Dl.Params.paper_hops ~phi
    ~times:[| 2.; 3.; 4.; 5.; 6. |]

let test_model_solution_theory () =
  let sol = solve_paper () in
  Alcotest.(check bool) "bounds" true (Dl.Properties.bounds sol).Dl.Properties.holds;
  Alcotest.(check bool) "monotone" true
    (Dl.Properties.monotone_in_time sol).Dl.Properties.holds

let test_model_schemes_agree () =
  let a = solve_paper ~scheme:Dl.Model.Strang () in
  let b = solve_paper ~scheme:Dl.Model.Crank_nicolson () in
  let c = solve_paper ~scheme:Dl.Model.Ftcs () in
  List.iter
    (fun t ->
      List.iter
        (fun x ->
          let va = Dl.Model.predict a ~x ~t in
          checkf 2e-3 "strang vs CN" va (Dl.Model.predict b ~x ~t);
          checkf 2e-3 "strang vs ftcs" va (Dl.Model.predict c ~x ~t))
        [ 1.; 2.5; 4.; 6. ])
    [ 2.; 6. ]

let test_model_rejects_early_times () =
  let phi = paper_like_phi () in
  try
    ignore (Dl.Model.solve Dl.Params.paper_hops ~phi ~times:[| 0.5 |]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_model_diffusion_spreads () =
  (* with growth off, a peaked profile must flatten: density flows from
     near distances to far ones *)
  let phi =
    Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
      ~densities:[| 10.; 1.; 0.5; 0.4; 0.3; 0.2 |]
  in
  let params =
    Dl.Params.make ~d:0.5 ~k:25. ~r:(Dl.Growth.Constant 0.) ~l:1. ~big_l:6.
  in
  let sol = Dl.Model.solve params ~phi ~times:[| 10.; 40. |] in
  let at_far_t t = Dl.Model.predict sol ~x:6. ~t in
  Alcotest.(check bool) "far density rises" true (at_far_t 40. > at_far_t 10.);
  Alcotest.(check bool) "near density falls" true
    (Dl.Model.predict sol ~x:1. ~t:40. < 10.)

(* At d = 0 the DL equation decouples node by node into the logistic
   ODE, whose solution is I = K phi / (phi + (K - phi) e^{-R(t)}) with
   R(t) = ∫₁ᵗ r.  Strang's diffusion step is then the identity and its
   reaction flow is exact, so the solve must equal the formula at every
   node up to rounding.  Crank--Nicolson is left out: its RK2 reaction
   is not exact. *)
let test_model_d0_closed_form () =
  let times = [| 1.5; 2.; 3.; 4.; 5.; 6. |] in
  let xs = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let phis =
    [
      ("paper-like", paper_like_phi ());
      (* the spline between the two zero groups undershoots and is
         floored, so a stretch of nodes starts (and must stay) at 0 *)
      ( "zero nodes",
        Dl.Initial.of_observations ~xs ~densities:[| 0.; 0.; 6.; 3.; 1.; 0.5 |] );
    ]
  in
  List.iter
    (fun (base, (nx, dt)) ->
      let params = Dl.Params.with_domain { base with Dl.Params.d = 0. } ~l:1. ~big_l:6. in
      let k = params.Dl.Params.k and r = params.Dl.Params.r in
      List.iter
        (fun (name, phi) ->
          let sol = Dl.Model.solve ~scheme:Dl.Model.Strang ~nx ~dt params ~phi ~times in
          let pde = sol.Dl.Model.pde in
          let zeros = ref 0 in
          Array.iteri
            (fun it t ->
              let decay = exp (-.Dl.Growth.integral r ~t0:1. ~t1:t) in
              Array.iteri
                (fun i x ->
                  let p = Dl.Initial.to_function phi x in
                  let expected =
                    if p = 0. then 0. else k *. p /. (p +. ((k -. p) *. decay))
                  in
                  let got = pde.Numerics.Pde.values.(it).(i) in
                  if p = 0. then incr zeros;
                  if Float.abs (got -. expected) > 1e-12 *. Float.abs expected
                  then
                    Alcotest.failf "%s nx %d t %g x %g: solve %.17g, closed form %.17g"
                      name nx t x got expected)
                pde.Numerics.Pde.xs)
            pde.Numerics.Pde.ts;
          if name = "zero nodes" && !zeros = 0 then
            Alcotest.failf "nx %d: phi has no zero node" nx)
        phis)
    [
      (Dl.Params.paper_hops, (41, 0.05));
      (Dl.Params.paper_interest, (41, 0.05));
      (Dl.Params.paper_hops, (101, 0.01));
      (Dl.Params.paper_interest, (101, 0.01));
    ]

let test_model_extended_variable_coefficients () =
  (* the future-work variant runs and respects bounds *)
  let phi = paper_like_phi () in
  let params = Dl.Params.paper_hops in
  let sol =
    Dl.Model.solve_extended params
      ~diffusion:(fun x -> 0.01 +. (0.002 *. x))
      ~growth:(fun ~x ~t ->
        Dl.Growth.eval Dl.Growth.paper_hops t /. (1. +. (0.05 *. x)))
      ~phi ~times:[| 2.; 4.; 6. |]
  in
  Alcotest.(check bool) "bounds hold" true
    (Dl.Properties.bounds sol).Dl.Properties.holds

(* --- Properties: negative cases --- *)

let test_properties_detect_violations () =
  (* fabricate a solution violating both properties via a tiny K *)
  let phi = paper_like_phi () in
  let params =
    Dl.Params.make ~d:0.01 ~k:3. ~r:(Dl.Growth.Constant 1.) ~l:1. ~big_l:6.
  in
  (* phi exceeds K = 3 at x = 1 (phi = 6): solution starts above K and
     decreases there -> bounds "violated" w.r.t. K and non-monotone *)
  let sol = Dl.Model.solve params ~phi ~times:[| 2.; 4. |] in
  Alcotest.(check bool) "bounds violated" false
    (Dl.Properties.bounds sol).Dl.Properties.holds;
  Alcotest.(check bool) "monotonicity violated" false
    (Dl.Properties.monotone_in_time sol).Dl.Properties.holds;
  Alcotest.(check bool) "phi is not a lower solution" false
    (Dl.Properties.is_lower_solution phi ~params)

(* --- Accuracy --- *)

let test_accuracy_metric () =
  checkf 1e-12 "perfect" 1. (Dl.Accuracy.accuracy ~predicted:5. ~actual:5.);
  checkf 1e-12 "10% off" 0.9 (Dl.Accuracy.accuracy ~predicted:9. ~actual:10.);
  checkf 1e-12 "clamped at 0" 0. (Dl.Accuracy.accuracy ~predicted:30. ~actual:10.);
  Alcotest.(check bool) "undefined on zero actual" true
    (Float.is_nan (Dl.Accuracy.accuracy ~predicted:1. ~actual:0.))

let test_accuracy_table_shape () =
  let table =
    Dl.Accuracy.table
      ~predict:(fun ~x ~t -> float_of_int x *. t)
      ~actual:(fun ~x ~t -> float_of_int x *. t *. 1.25)
      ~distances:[| 1; 2 |] ~times:[| 2.; 3. |]
  in
  (* every cell: predicted = actual/1.25 -> accuracy = 0.8 *)
  Array.iter
    (fun row -> Array.iter (fun v -> checkf 1e-12 "cell" 0.8 v) row)
    table.Dl.Accuracy.cells;
  checkf 1e-12 "row avg" 0.8 table.Dl.Accuracy.row_average.(0);
  checkf 1e-12 "overall" 0.8 table.Dl.Accuracy.overall_average

let test_accuracy_table_skips_undefined () =
  let table =
    Dl.Accuracy.table
      ~predict:(fun ~x:_ ~t:_ -> 1.)
      ~actual:(fun ~x ~t:_ -> if x = 1 then 0. else 1.)
      ~distances:[| 1; 2 |] ~times:[| 2. |]
  in
  Alcotest.(check bool) "row 1 undefined" true
    (Float.is_nan table.Dl.Accuracy.row_average.(0));
  checkf 1e-12 "overall ignores nan" 1. table.Dl.Accuracy.overall_average

(* --- synthetic observation helpers for Fit/Baselines/Pipeline --- *)

(* Build a Density.t directly from a ground-truth DL solution, so the
   fitter's target is realisable. *)
let synthetic_obs params =
  let phi = paper_like_phi () in
  let times = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let sol = Dl.Model.solve params ~phi ~times in
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

let test_fit_recovers_dl_dynamics () =
  (* fitting against data generated by the DL model itself must reach a
     small training error and predict the held-out t=5,6 cells well *)
  let truth = Dl.Params.paper_hops in
  let obs = synthetic_obs truth in
  let rng = Rng.create 3 in
  let result = Dl.Fit.fit rng obs in
  Alcotest.(check bool) "small training error" true
    (result.Dl.Fit.training_error < 0.05);
  let phi = paper_like_phi () in
  let sol = Dl.Model.solve result.Dl.Fit.params ~phi ~times:[| 5.; 6. |] in
  Array.iter
    (fun x ->
      let actual = Socialnet.Density.at obs ~distance:x ~time:6. in
      let predicted = Dl.Model.predict sol ~x:(float_of_int x) ~t:6. in
      Alcotest.(check bool) "held-out cell within 15%" true
        (Float.abs (predicted -. actual) /. actual < 0.15))
    [| 1; 3; 6 |]

let test_fit_objective_paper_params_near_zero_on_own_data () =
  let truth = Dl.Params.paper_hops in
  let obs = synthetic_obs truth in
  let phi = paper_like_phi () in
  let err =
    Dl.Fit.objective ~phi ~obs ~fit_times:[| 2.; 3.; 4. |] truth
  in
  Alcotest.(check bool) "self-error tiny" true (err < 1e-3)

let test_fit_rejects_bad_obs () =
  let obs =
    {
      Socialnet.Density.distances = [| 1; 2 |];
      times = [| 3.; 4. |];
      density = [| [| 1.; 2. |]; [| 1.; 2. |] |];
      population = [| 10; 10 |];
    }
  in
  try
    ignore (Dl.Fit.fit (Rng.create 0) obs);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* --- calibrators pinned bit for bit ---

   A fixed observation that no model reproduces (the densities of the
   serving smoke test), so restarts end in different basins and the
   winner's bits depend on the whole search: start order, rng draws,
   tie-breaking and the error sum.  The expected values are
   [Int64.bits_of_float] of every fitted parameter and of the training
   error. *)

let pin_obs =
  {
    Socialnet.Density.distances = [| 1; 2; 3; 4; 5 |];
    times = [| 1.; 2.; 3.; 4.; 5.; 6. |];
    density =
      [|
        [| 1.0; 2.0; 3.5; 5.0; 6.0; 6.5 |];
        [| 0.8; 1.6; 2.8; 4.0; 5.0; 5.5 |];
        [| 0.5; 1.0; 1.8; 2.6; 3.3; 3.8 |];
        [| 0.3; 0.6; 1.1; 1.6; 2.0; 2.4 |];
        [| 0.2; 0.4; 0.7; 1.0; 1.3; 1.5 |];
      |];
    population = Array.make 5 100;
  }

let check_pinned name expected values =
  Alcotest.(check (list int64)) name expected
    (List.map Int64.bits_of_float values)

let exp_decay = function
  | Dl.Growth.Exp_decay { a; b; c } -> [ a; b; c ]
  | Dl.Growth.Constant _ -> Alcotest.fail "expected an exp-decay r(t)"

let pin_fit_config =
  { Dl.Fit.default_config with starts = 3; solver_nx = 21; solver_dt = 0.1 }

let test_fit_pinned () =
  let pinned name expected evaluations (r : Dl.Fit.result) =
    let p = r.Dl.Fit.params in
    check_pinned name expected
      ((p.Dl.Params.d :: p.Dl.Params.k :: exp_decay p.Dl.Params.r)
       @ [ r.Dl.Fit.training_error ]);
    Alcotest.(check int) (name ^ " evaluations") evaluations
      r.Dl.Fit.evaluations
  in
  pinned "cold"
    [ 0x3f1a36e2eb1c432dL; 0x40337ffe9845bdceL; 0x3fea94abb736eaddL;
      0x3fcf4d97e4553ab3L; 0x0L; 0x3fa19ad98d08b74bL ]
    1224
    (Dl.Fit.fit ~config:pin_fit_config (Rng.create 7) pin_obs);
  (* a warm start replaces polish 0 only; polish 1 is the cold fit's
     coarse polish, which wins here as it does cold *)
  let prior = Dl.Params.with_domain Dl.Params.paper_hops ~l:1. ~big_l:5. in
  pinned "warm"
    [ 0x3f1a36e2eb1c432dL; 0x40337ffe9845bdceL; 0x3fea94abb736eaddL;
      0x3fcf4d97e4553ab3L; 0x0L; 0x3fa19ad98d08b74bL ]
    847
    (Dl.Fit.fit ~config:{ pin_fit_config with starts = 2 }
       ~init:(Dl.Fit.Init_params prior) (Rng.create 7) pin_obs)

(* [Fit.closed_form] is the d = 0 model on the fit grid: equal to the
   PDE objective at d = 0 up to rounding, on distances that are grid
   nodes (pin_obs on [1, 5] at 41 nodes) and on distances between nodes
   ([1, 7] at 41 nodes), with a group empty at t = 1. *)
let test_fit_closed_form_is_d0_objective () =
  let off_node =
    {
      Socialnet.Density.distances = [| 1; 2; 3; 4; 5; 6; 7 |];
      times = pin_obs.Socialnet.Density.times;
      density =
        Array.append
          [| [| 0.0; 0.4; 1.0; 1.5; 1.8; 2.0 |] |]
          (Array.append pin_obs.Socialnet.Density.density
             [| [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 |] |]);
      population = Array.make 7 100;
    }
  in
  let fit_times = [| 2.; 3.; 4. |] in
  List.iter
    (fun (name, (obs : Socialnet.Density.t)) ->
      let distances = obs.Socialnet.Density.distances in
      let l = float_of_int distances.(0) in
      let big_l = float_of_int distances.(Array.length distances - 1) in
      let phi = Dl.Fit.phi_of_obs obs in
      let cf = Dl.Fit.closed_form ~nx:41 ~phi ~obs ~fit_times ~l ~big_l in
      List.iter
        (fun (k, a, b, c) ->
          let params =
            Dl.Params.make ~d:0. ~k ~r:(Dl.Growth.Exp_decay { a; b; c }) ~l ~big_l
          in
          let pde = Dl.Fit.objective ~nx:41 ~dt:0.05 ~phi ~obs ~fit_times params in
          let closed = cf [| k; a; b; c |] in
          if Float.abs (closed -. pde) > 1e-12 *. pde then
            Alcotest.failf "%s K %g: closed form %.17g, d = 0 solve %.17g" name k
              closed pde)
        [ (7., 0.5, 1., 0.1); (25., 1.4, 1.5, 0.25); (60., 1.6, 1., 0.1) ])
    [ ("nodes", pin_obs); ("between nodes", off_node) ];
  (* a fit time the observation lacks fails both the same way *)
  let phi = Dl.Fit.phi_of_obs pin_obs in
  checkf 0. "missing time" infinity
    (Dl.Fit.closed_form ~nx:41 ~phi ~obs:pin_obs ~fit_times:[| 2.; 7. |] ~l:1.
       ~big_l:5. [| 25.; 1.4; 1.5; 0.25 |])

let test_linear_fit_pinned () =
  let config =
    { Dl.Linear_model.default_fit_config with
      starts = 3; solver_nx = 21; solver_dt = 0.1 }
  in
  List.iter
    (fun pool ->
      let r = Dl.Linear_model.fit ~config ~pool (Rng.create 7) pin_obs in
      let p = r.Dl.Linear_model.params in
      let name = Printf.sprintf "%d domains" (Parallel.Pool.jobs pool) in
      check_pinned name
        [ 0x3f1a36e2eb1c432dL; 0x3fe5e16608610fdaL; 0x4007540d0601f67dL;
          0x3fde2af6abd02939L; 0x3fa3ca9cbbbd50a6L ]
        ((p.Dl.Linear_model.d :: exp_decay p.Dl.Linear_model.r)
         @ [ r.Dl.Linear_model.training_error ]);
      Alcotest.(check int) (name ^ " evaluations") 829
        r.Dl.Linear_model.evaluations)
    [ Parallel.Pool.sequential; Parallel.Pool.create ~jobs:2 () ]

let test_epidemic_fit_pinned () =
  let r = Dl.Epidemic.fit (Rng.create 4) pin_obs in
  let p = r.Dl.Epidemic.params in
  check_pinned "rates and training error"
    [ 0x3fe16c64c87b8565L; 0x3fa60e4292c96c28L; 0x3fc3178dba1c34a6L;
      0x3fb9a6919510c699L ]
    [ p.Dl.Epidemic.beta_local; p.Dl.Epidemic.beta_cross;
      p.Dl.Epidemic.mixing_decay; r.Dl.Epidemic.training_error ];
  (* every ODE solve of the six restarts *)
  Alcotest.(check int) "evaluations" 1610 r.Dl.Epidemic.evaluations

(* --- Baselines --- *)

let test_persistence_baseline () =
  let obs = synthetic_obs Dl.Params.paper_hops in
  let p = Dl.Baselines.persistence obs in
  checkf 1e-9 "holds t=1 value" obs.Socialnet.Density.density.(0).(0)
    (p ~x:1 ~t:6.)

let test_linear_trend_baseline () =
  (* on exactly linear data the trend is exact *)
  let obs =
    {
      Socialnet.Density.distances = [| 1; 2 |];
      times = [| 1.; 2.; 3. |];
      density = [| [| 1.; 2.; 3. |]; [| 2.; 4.; 6. |] |];
      population = [| 10; 10 |];
    }
  in
  let p = Dl.Baselines.linear_trend obs ~fit_times:[| 2.; 3. |] in
  checkf 1e-9 "extrapolates row 1" 5. (p ~x:1 ~t:5.);
  checkf 1e-9 "extrapolates row 2" 10. (p ~x:2 ~t:5.)

let test_logistic_baseline_beats_persistence_on_logistic_data () =
  (* per-distance logistic data with no diffusion: the logistic baseline
     should fit it nearly perfectly, persistence should not *)
  let times = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let k = 20. in
  let obs =
    {
      Socialnet.Density.distances = [| 1; 2; 3 |];
      times;
      density =
        Array.map
          (fun n0 ->
            Array.map (fun t -> Ode.logistic ~r:0.8 ~k ~n0 (t -. 1.)) times)
          [| 5.; 3.; 1. |];
      population = [| 10; 10; 10 |];
    }
  in
  let logistic = Dl.Baselines.logistic_per_distance obs ~fit_times:[| 2.; 3.; 4. |] in
  let persistence = Dl.Baselines.persistence obs in
  let actual = Socialnet.Density.at obs ~distance:1 ~time:6. in
  let err p = Float.abs (p ~x:1 ~t:6. -. actual) /. actual in
  Alcotest.(check bool) "logistic accurate" true (err logistic < 0.05);
  Alcotest.(check bool) "persistence poor" true (err persistence > 0.3)

(* --- Pipeline on the small synthetic corpus --- *)

let corpus = lazy (Socialnet.Digg.build ~scale:Socialnet.Digg.small ~seed:5 ())

let test_pipeline_runs_hops () =
  let c = Lazy.force corpus in
  let ds = c.Socialnet.Digg.dataset in
  let s1 = Socialnet.Dataset.story ds c.Socialnet.Digg.rep_ids.(0) in
  let exp = Dl.Pipeline.run ds ~story:s1 ~metric:Dl.Pipeline.hops in
  (* structure *)
  Alcotest.(check bool) "some distances" true
    (Array.length exp.Dl.Pipeline.observation.Socialnet.Density.distances >= 2);
  Alcotest.(check bool) "overall average defined" true
    (not (Float.is_nan exp.Dl.Pipeline.table.Dl.Accuracy.overall_average));
  (* the solved model still honours the theory *)
  Alcotest.(check bool) "bounds" true
    (Dl.Properties.bounds exp.Dl.Pipeline.solution).Dl.Properties.holds

let test_pipeline_runs_interest () =
  let c = Lazy.force corpus in
  let ds = c.Socialnet.Digg.dataset in
  let s2 = Socialnet.Dataset.story ds c.Socialnet.Digg.rep_ids.(1) in
  let exp = Dl.Pipeline.run ds ~story:s2 ~metric:Dl.Pipeline.interest in
  Alcotest.(check bool) "table has rows" true
    (Array.length exp.Dl.Pipeline.table.Dl.Accuracy.distances >= 2)

let test_pipeline_auto_beats_or_matches_paper_params () =
  let c = Lazy.force corpus in
  let ds = c.Socialnet.Digg.dataset in
  let s1 = Socialnet.Dataset.story ds c.Socialnet.Digg.rep_ids.(0) in
  let paper = Dl.Pipeline.run ds ~story:s1 ~metric:Dl.Pipeline.hops in
  let auto =
    Dl.Pipeline.run
      ~params:
        (Dl.Pipeline.Auto
           { rng = Rng.create 9; config = Dl.Fit.default_config })
      ds ~story:s1 ~metric:Dl.Pipeline.hops
  in
  Alcotest.(check bool) "fit error reported" true
    (auto.Dl.Pipeline.fit_error <> None);
  (* calibration should not be materially worse than the paper's
     hand-picked constants on a foreign corpus *)
  Alcotest.(check bool) "auto >= paper - 5%" true
    (auto.Dl.Pipeline.table.Dl.Accuracy.overall_average
     >= paper.Dl.Pipeline.table.Dl.Accuracy.overall_average -. 0.05)

(* An [Auto] fit is calibrated on the phi the pipeline solves from, in
   either construction, and reports that phi to [on_fit]. *)
let test_pipeline_fit_uses_its_phi () =
  let c = Lazy.force corpus in
  let ds = c.Socialnet.Digg.dataset in
  let s1 = Socialnet.Dataset.story ds c.Socialnet.Digg.rep_ids.(0) in
  List.iter
    (fun construction ->
      let seen = ref None in
      let exp =
        Dl.Pipeline.run ~construction
          ~params:
            (Dl.Pipeline.Auto
               { rng = Rng.create 9;
                 config = { pin_fit_config with starts = 1 } })
          ~on_fit:(fun ev -> seen := Some ev.Dl.Fit.ev_phi)
          ds ~story:s1 ~metric:Dl.Pipeline.hops
      in
      match !seen with
      | None -> Alcotest.fail "no fit reported"
      | Some phi ->
        Alcotest.(check bool) "reported construction" true
          (Dl.Initial.construction phi = construction);
        Alcotest.(check bool) "the pipeline's own phi" true
          (phi == exp.Dl.Pipeline.phi))
    [ `Pchip; `Cubic_spline ]

let test_pipeline_baseline_table () =
  let c = Lazy.force corpus in
  let ds = c.Socialnet.Digg.dataset in
  let s1 = Socialnet.Dataset.story ds c.Socialnet.Digg.rep_ids.(0) in
  let exp = Dl.Pipeline.run ds ~story:s1 ~metric:Dl.Pipeline.hops in
  let table =
    Dl.Pipeline.baseline_table exp
      ~baseline:(Dl.Baselines.persistence exp.Dl.Pipeline.observation)
  in
  Alcotest.(check int) "same distances"
    (Array.length exp.Dl.Pipeline.table.Dl.Accuracy.distances)
    (Array.length table.Dl.Accuracy.distances)

let suite =
  [
    Alcotest.test_case "growth eval" `Quick test_growth_eval;
    Alcotest.test_case "growth integral" `Quick test_growth_integral_matches_quadrature;
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "paper params" `Quick test_paper_params;
    Alcotest.test_case "phi interpolates" `Quick test_phi_interpolates;
    Alcotest.test_case "phi flat ends" `Quick test_phi_flat_ends;
    Alcotest.test_case "phi admissibility" `Quick test_phi_admissibility_report;
    Alcotest.test_case "phi floor" `Quick test_phi_floor;
    Alcotest.test_case "phi rejects bad input" `Quick test_phi_rejects_bad_input;
    Alcotest.test_case "model theory" `Quick test_model_solution_theory;
    Alcotest.test_case "model schemes agree" `Slow test_model_schemes_agree;
    Alcotest.test_case "model rejects t<1" `Quick test_model_rejects_early_times;
    Alcotest.test_case "model diffusion spreads" `Quick test_model_diffusion_spreads;
    Alcotest.test_case "model extended coeffs" `Quick test_model_extended_variable_coefficients;
    Alcotest.test_case "model d=0 closed form" `Quick test_model_d0_closed_form;
    Alcotest.test_case "properties detect violations" `Quick test_properties_detect_violations;
    Alcotest.test_case "accuracy metric" `Quick test_accuracy_metric;
    Alcotest.test_case "accuracy table" `Quick test_accuracy_table_shape;
    Alcotest.test_case "accuracy skips undefined" `Quick test_accuracy_table_skips_undefined;
    Alcotest.test_case "fit recovers DL" `Slow test_fit_recovers_dl_dynamics;
    Alcotest.test_case "fit self-error" `Quick test_fit_objective_paper_params_near_zero_on_own_data;
    Alcotest.test_case "fit rejects bad obs" `Quick test_fit_rejects_bad_obs;
    Alcotest.test_case "fit pinned bits" `Quick test_fit_pinned;
    Alcotest.test_case "fit closed form = d=0 objective" `Quick
      test_fit_closed_form_is_d0_objective;
    Alcotest.test_case "linear fit pinned bits" `Quick test_linear_fit_pinned;
    Alcotest.test_case "epidemic fit pinned bits" `Quick test_epidemic_fit_pinned;
    Alcotest.test_case "persistence baseline" `Quick test_persistence_baseline;
    Alcotest.test_case "linear baseline" `Quick test_linear_trend_baseline;
    Alcotest.test_case "logistic baseline" `Quick test_logistic_baseline_beats_persistence_on_logistic_data;
    Alcotest.test_case "pipeline hops" `Slow test_pipeline_runs_hops;
    Alcotest.test_case "pipeline interest" `Slow test_pipeline_runs_interest;
    Alcotest.test_case "pipeline auto fit" `Slow test_pipeline_auto_beats_or_matches_paper_params;
    Alcotest.test_case "pipeline baselines" `Slow test_pipeline_baseline_table;
    Alcotest.test_case "pipeline fit uses its phi" `Slow test_pipeline_fit_uses_its_phi;
  ]
