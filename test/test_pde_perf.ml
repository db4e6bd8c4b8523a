(* The allocation-free PDE fast path is only allowed to exist because
   it is bit-identical to the retained reference stepper: same
   floating-point operations in the same order, only the array churn
   and re-factorizations removed.  These tests enforce that contract
   (per-cell Int64 bit equality, not approximate checks), plus the
   workspace-reuse counters, the factored-solve algebra, the fused
   panel kernel and its telemetry. *)

open Numerics

(* --- Tridiag: factorized Thomas vs one-shot solve --- *)

let random_dominant_system rng n =
  let sub = Array.init (n - 1) (fun _ -> Rng.uniform rng (-1.) 1.) in
  let sup = Array.init (n - 1) (fun _ -> Rng.uniform rng (-1.) 1.) in
  let diag =
    Array.init n (fun i ->
        let row =
          (if i > 0 then Float.abs sub.(i - 1) else 0.)
          +. if i < n - 1 then Float.abs sup.(i) else 0.
        in
        row +. Rng.uniform rng 0.5 2.)
  in
  (Tridiag.make ~sub ~diag ~sup, Array.init n (fun _ -> Rng.uniform rng (-5.) 5.))

let test_factorize_matches_solve () =
  let rng = Rng.create 42 in
  List.iter
    (fun n ->
      let t, b = random_dominant_system rng n in
      let expect = Tridiag.solve t b in
      let f = Tridiag.factorize t in
      Alcotest.(check int) "factored dim" n (Tridiag.factored_dim f);
      let dst = Array.make n 0. in
      Tridiag.solve_factored f ~src:b ~dst;
      Array.iteri
        (fun i v ->
          if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float dst.(i)))
          then Alcotest.failf "n=%d cell %d: %.17g vs %.17g" n i v dst.(i))
        expect)
    [ 1; 2; 3; 7; 41 ]

let test_factored_reused_across_rhs () =
  (* one c'-sweep, many right-hand sides: each must still match the
     one-shot solve bit for bit *)
  let rng = Rng.create 7 in
  let t, _ = random_dominant_system rng 31 in
  let f = Tridiag.factorize t in
  let dst = Array.make 31 0. in
  for _ = 1 to 5 do
    let b = Array.init 31 (fun _ -> Rng.uniform rng (-3.) 3.) in
    Tridiag.solve_factored f ~src:b ~dst;
    let expect = Tridiag.solve t b in
    Array.iteri
      (fun i v ->
        Alcotest.(check bool) "bit equal" true
          (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float dst.(i))))
      expect
  done

let test_solve_factored_in_place () =
  (* src == dst aliasing is part of the contract *)
  let rng = Rng.create 11 in
  let t, b = random_dominant_system rng 17 in
  let expect = Tridiag.solve t b in
  let buf = Array.copy b in
  let f = Tridiag.factorize t in
  Tridiag.solve_factored f ~src:buf ~dst:buf;
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "in-place bit equal" true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float buf.(i))))
    expect

let test_mv_into_matches_mv () =
  let rng = Rng.create 13 in
  let t, x = random_dominant_system rng 23 in
  let expect = Tridiag.mv t x in
  let dst = Array.make 23 nan in
  Tridiag.mv_into t x ~dst;
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "mv bit equal" true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float dst.(i))))
    expect

let test_factorize_singular_raises () =
  let t = Tridiag.make ~sub:[| 1. |] ~diag:[| 0.; 1. |] ~sup:[| 1. |] in
  try
    ignore (Tridiag.factorize t);
    Alcotest.fail "expected Mat.Singular"
  with Mat.Singular -> ()

(* --- workspace stepper vs reference stepper: bit identity --- *)

let dl_problem () =
  let r t = (1.4 *. exp (-1.5 *. (t -. 1.))) +. 0.25 in
  let k = 25. in
  ( {
      Pde.xl = 1.;
      xr = 6.;
      nx = 41;
      diffusion = (fun _ -> 0.05);
      reaction = Pde.Custom (fun ~x:_ ~t ~u -> r t *. u *. (1. -. (u /. k)));
      initial = (fun x -> 8. *. exp (-0.5 *. (x -. 1.)));
      t0 = 1.;
    },
    r,
    k )

(* snapshot times that are not multiples of dt, so the loop hits the
   ragged-final-partial-step path (throwaway operator builds) as well
   as the cached macro-step path *)
let ragged_times = [| 1.303; 2.5; 3.017 |]

let check_solutions_bit_identical name (a : Pde.solution) (b : Pde.solution) =
  Alcotest.(check int) (name ^ ": snapshot count") (Array.length a.Pde.values)
    (Array.length b.Pde.values);
  Array.iteri
    (fun it row ->
      Array.iteri
        (fun ix v ->
          let w = b.Pde.values.(it).(ix) in
          if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w))
          then
            Alcotest.failf "%s: cell (it=%d, ix=%d) differs: %.17g vs %.17g"
              name it ix v w)
        row)
    a.Pde.values

let schemes_under_test () =
  let _, r, k = dl_problem () in
  [
    ("ftcs", Pde.Ftcs);
    ("imex-cn", Pde.Imex 0.5);
    ("imex-implicit", Pde.Imex 1.);
    ("strang", Pde.Strang (Pde.logistic_reaction_step ~r ~k));
  ]

let test_workspace_bit_identical () =
  let p, _, _ = dl_problem () in
  List.iter
    (fun (name, scheme) ->
      (* fresh reaction closures per solve: logistic_reaction_step is
         stateful (memoized integral) *)
      let fast =
        Pde.solve ~scheme ~dt:0.01 ~reference:false p ~times:ragged_times
      in
      let slow =
        Pde.solve ~scheme ~dt:0.01 ~reference:true p ~times:ragged_times
      in
      check_solutions_bit_identical name fast slow)
    (schemes_under_test ())

let test_workspace_no_state_leak () =
  (* repeated fast solves of the same problem must be bit-identical to
     each other and to the reference: nothing carries over *)
  let p, _, _ = dl_problem () in
  List.iter
    (fun (name, scheme) ->
      let run () =
        Pde.solve ~scheme ~dt:0.01 ~reference:false p ~times:ragged_times
      in
      let first = run () in
      let second = run () in
      check_solutions_bit_identical (name ^ " repeat") first second;
      check_solutions_bit_identical (name ^ " vs ref") first
        (Pde.solve ~scheme ~dt:0.01 ~reference:true p ~times:ragged_times))
    (schemes_under_test ())

let test_global_reference_toggle () =
  let p, _, _ = dl_problem () in
  Alcotest.(check bool) "default is fast" false (Pde.use_reference_stepper ());
  Pde.set_use_reference_stepper true;
  Fun.protect
    ~finally:(fun () -> Pde.set_use_reference_stepper false)
    (fun () ->
      (* ?reference defaults to the global toggle; result is still
         bit-identical because the two paths are *)
      let toggled = Pde.solve ~dt:0.01 p ~times:ragged_times in
      let fast = Pde.solve ~dt:0.01 ~reference:false p ~times:ragged_times in
      check_solutions_bit_identical "toggle" toggled fast)

(* --- workspace counters --- *)

let with_obs_enabled f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let test_workspace_counters () =
  with_obs_enabled (fun () ->
      let reuses = Obs.Metrics.counter "pde.workspace_reuses" in
      let rebuilds = Obs.Metrics.counter "pde.factor_rebuilds" in
      let r0 = Obs.Metrics.counter_value reuses in
      let b0 = Obs.Metrics.counter_value rebuilds in
      let p, _, _ = dl_problem () in
      (* 1.303 needs a ragged step, so: 1 initial build + ragged
         throwaway builds, and many macro steps served by the cache *)
      ignore
        (Pde.solve ~scheme:(Pde.Imex 0.5) ~dt:0.01 ~reference:false p
           ~times:ragged_times);
      let dr = Obs.Metrics.counter_value reuses - r0 in
      let db = Obs.Metrics.counter_value rebuilds - b0 in
      Alcotest.(check bool) "many cached steps" true (dr > 100);
      Alcotest.(check bool) "initial + ragged rebuilds" true (db >= 2);
      (* the reference path must not touch workspace counters *)
      let r1 = Obs.Metrics.counter_value reuses in
      ignore
        (Pde.solve ~scheme:(Pde.Imex 0.5) ~dt:0.01 ~reference:true p
           ~times:ragged_times);
      Alcotest.(check int) "reference adds no reuses" r1
        (Obs.Metrics.counter_value reuses))

(* --- fused panel solves vs per-story scalar solves --- *)

(* A pseudo-random story: paper-shaped r(t), per-story (d, k,
   amplitude).  [kind] selects the reaction representation; the
   [Custom] closure computes the same logistic formula through the
   boxed path. *)
let panel_story_of_rng rng kind =
  let d = Rng.uniform rng 0.01 0.3 in
  let a = Rng.uniform rng 0.3 1.8 in
  let b = Rng.uniform rng 0.5 2.0 in
  let c = Rng.uniform rng 0.1 0.5 in
  let r t = (a *. exp (-.b *. (t -. 1.))) +. c in
  let k = Rng.uniform rng 5. 40. in
  let amp = Rng.uniform rng 2. 10. in
  let reaction =
    match kind with
    | 0 -> Pde.Logistic { r; k }
    | 1 -> Pde.Linear { r }
    | _ -> Pde.Custom (fun ~x:_ ~t ~u -> r t *. u *. (1. -. (u /. k)))
  in
  ( {
      Pde.ps_diffusion = (fun _ -> d);
      ps_reaction = reaction;
      ps_initial = (fun x -> amp *. exp (-0.5 *. (x -. 1.)));
    },
    r,
    k )

let scalar_scheme_for st r k =
  function
  | Pde.Panel_imex theta -> Pde.Imex theta
  | Pde.Panel_strang -> (
    match st.Pde.ps_reaction with
    | Pde.Logistic _ -> Pde.Strang (Pde.logistic_reaction_step ~r ~k)
    | Pde.Linear _ -> Pde.Strang (Pde.linear_reaction_step ~r)
    | Pde.Custom _ -> assert false)

let check_panel_matches_scalar ?workspace ~scheme ~kinds seed ns =
  let rng = Rng.create seed in
  let stories = Array.init ns (fun s -> panel_story_of_rng rng (kinds s)) in
  let pp =
    {
      Pde.pp_xl = 1.;
      pp_xr = 6.;
      pp_nx = 25;
      pp_t0 = 1.;
      pp_stories = Array.map (fun (st, _, _) -> st) stories;
    }
  in
  let sols = Pde.solve_panel ~scheme ~dt:0.01 ?workspace pp ~times:ragged_times in
  Alcotest.(check int) "panel story count" ns (Array.length sols);
  Array.iteri
    (fun s (st, r, k) ->
      let p =
        {
          Pde.xl = 1.;
          xr = 6.;
          nx = 25;
          diffusion = st.Pde.ps_diffusion;
          reaction = st.Pde.ps_reaction;
          initial = st.Pde.ps_initial;
          t0 = 1.;
        }
      in
      let expect =
        Pde.solve ~scheme:(scalar_scheme_for st r k scheme) ~dt:0.01
          ~reference:false p ~times:ragged_times
      in
      check_solutions_bit_identical (Printf.sprintf "panel story %d" s) sols.(s)
        expect)
    stories

let prop_panel_bit_identity =
  (* panel sizes 1/2/17, both panel schemes, ragged snapshot times and
     mixed reaction shapes — including a Custom story exercising the
     closure fallback under IMEX.  Every column must reproduce the
     per-story scalar solve bit for bit. *)
  QCheck.Test.make ~count:10 ~name:"solve_panel bit-identical per story"
    QCheck.(triple (oneofl [ 1; 2; 17 ]) bool small_nat)
    (fun (ns, strang, seed) ->
      let scheme = if strang then Pde.Panel_strang else Pde.Panel_imex 0.5 in
      (* Strang panels cannot carry Custom; IMEX panels cycle all three *)
      let kinds s = if strang then s mod 2 else s mod 3 in
      check_panel_matches_scalar ~scheme ~kinds (seed + (7 * ns)) ns;
      true)

let test_panel_reference_fallback () =
  (* ~reference:true must route every story through the reference
     stepper — still bit-identical, by the existing scalar contract *)
  let rng = Rng.create 5 in
  let stories = Array.init 3 (fun s -> panel_story_of_rng rng (s mod 2)) in
  let pp =
    {
      Pde.pp_xl = 1.;
      pp_xr = 6.;
      pp_nx = 25;
      pp_t0 = 1.;
      pp_stories = Array.map (fun (st, _, _) -> st) stories;
    }
  in
  let fast =
    Pde.solve_panel ~scheme:(Pde.Panel_imex 0.5) ~dt:0.01 ~reference:false pp
      ~times:ragged_times
  in
  let slow =
    Pde.solve_panel ~scheme:(Pde.Panel_imex 0.5) ~dt:0.01 ~reference:true pp
      ~times:ragged_times
  in
  Array.iteri
    (fun s f ->
      check_solutions_bit_identical
        (Printf.sprintf "reference story %d" s)
        f slow.(s))
    fast

let test_panel_strang_rejects_custom () =
  let st =
    {
      Pde.ps_diffusion = (fun _ -> 0.05);
      ps_reaction = Pde.Custom (fun ~x:_ ~t:_ ~u -> u);
      ps_initial = (fun _ -> 1.);
    }
  in
  let pp =
    { Pde.pp_xl = 1.; pp_xr = 6.; pp_nx = 11; pp_t0 = 1.; pp_stories = [| st |] }
  in
  try
    ignore (Pde.solve_panel ~scheme:Pde.Panel_strang ~dt:0.01 pp ~times:[| 2. |]);
    Alcotest.fail "expected Invalid_argument for Custom under Strang"
  with Invalid_argument _ -> ()

let test_panel_workspace_reuse () =
  with_obs_enabled (fun () ->
      let reuses = Obs.Metrics.counter "pde.panel_reuses" in
      let rebuilds = Obs.Metrics.counter "pde.panel_rebuilds" in
      let r0 = Obs.Metrics.counter_value reuses in
      let b0 = Obs.Metrics.counter_value rebuilds in
      let ws = Pde.panel_workspace () in
      (* same shape twice: one rebuild then one reuse, results
         unchanged by the recycled buffers *)
      check_panel_matches_scalar ~workspace:ws ~scheme:(Pde.Panel_imex 0.5)
        ~kinds:(fun s -> s mod 3) 11 4;
      check_panel_matches_scalar ~workspace:ws ~scheme:Pde.Panel_strang
        ~kinds:(fun s -> s mod 2) 13 4;
      Alcotest.(check (pair int int)) "workspace stats" (1, 1)
        (Pde.panel_workspace_stats ws);
      (* shape change reallocates *)
      check_panel_matches_scalar ~workspace:ws ~scheme:(Pde.Panel_imex 0.5)
        ~kinds:(fun s -> s mod 3) 17 2;
      Alcotest.(check (pair int int)) "workspace stats after reshape" (1, 2)
        (Pde.panel_workspace_stats ws);
      Alcotest.(check int) "pde.panel_reuses counter" 1
        (Obs.Metrics.counter_value reuses - r0);
      Alcotest.(check int) "pde.panel_rebuilds counter" 2
        (Obs.Metrics.counter_value rebuilds - b0))

let model_phi () =
  Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
    ~densities:[| 6.0; 3.1; 2.3; 1.2; 0.7; 0.4 |]

let test_model_solve_workspace_bit_identical () =
  (* Model.solve runs the fused kernel at width 1, on a caller's
     workspace or on private buffers: both must reproduce the scalar
     solver bit for bit for either implicit scheme *)
  let phi = model_phi () in
  let times = [| 2.; 3.5; 4.017 |] in
  let params = Dl.Params.paper_hops in
  let r = Dl.Growth.eval params.Dl.Params.r and k = params.Dl.Params.k in
  let scalar scheme =
    Pde.solve ~scheme ~dt:0.01 ~reference:true
      {
        Pde.xl = params.Dl.Params.l;
        xr = params.Dl.Params.big_l;
        nx = 101;
        diffusion = (fun _ -> params.Dl.Params.d);
        reaction = Pde.Logistic { r; k };
        initial = Dl.Initial.to_function phi;
        t0 = 1.;
      }
      ~times
  in
  let ws = Pde.panel_workspace () in
  List.iter
    (fun (scheme, scalar_scheme) ->
      let expect = scalar scalar_scheme in
      let plain = Dl.Model.solve ~scheme params ~phi ~times in
      let panel = Dl.Model.solve ~scheme ~workspace:ws params ~phi ~times in
      check_solutions_bit_identical "model private buffers" plain.Dl.Model.pde expect;
      check_solutions_bit_identical "model workspace" panel.Dl.Model.pde expect)
    [
      (Dl.Model.Crank_nicolson, Pde.Imex 0.5);
      (Dl.Model.Strang, Pde.Strang (Pde.logistic_reaction_step ~r ~k));
    ]

let test_solve_telemetry () =
  (* A workspace-less Model.solve is one plain solve (the series
     Pde.solve records); a workspace solve counts in pde.panel_* *)
  with_obs_enabled (fun () ->
      let c = Obs.Metrics.counter and h = Obs.Metrics.histogram in
      let read () =
        ( Obs.Metrics.counter_value (c "pde.solves"),
          Obs.Metrics.counter_value (c "pde.steps"),
          Obs.Metrics.histogram_count (h "pde.solve_ns"),
          Obs.Metrics.histogram_count (h "pde.step_ns"),
          Obs.Metrics.counter_value (c "pde.panel_solves"),
          Obs.Metrics.counter_value (c "pde.panel_steps") )
      in
      let phi = model_phi () in
      let solve ?workspace () =
        ignore
          (Dl.Model.solve ~nx:41 ~dt:0.05 ?workspace Dl.Params.paper_hops ~phi
             ~times:[| 2.; 3. |])
      in
      let s0, st0, sn0, stn0, p0, pst0 = read () in
      solve ();
      let s1, st1, sn1, stn1, p1, pst1 = read () in
      Alcotest.(check int) "plain: pde.solves" 1 (s1 - s0);
      Alcotest.(check int) "plain: pde.steps" 40 (st1 - st0);
      Alcotest.(check int) "plain: pde.solve_ns" 1 (sn1 - sn0);
      Alcotest.(check int) "plain: pde.step_ns" 40 (stn1 - stn0);
      Alcotest.(check int) "plain: no panel solve" 0 (p1 - p0);
      Alcotest.(check int) "plain: no panel steps" 0 (pst1 - pst0);
      solve ~workspace:(Pde.panel_workspace ()) ();
      let s2, st2, _, _, p2, pst2 = read () in
      Alcotest.(check int) "workspace: no plain solve" 0 (s2 - s1);
      Alcotest.(check int) "workspace: no plain steps" 0 (st2 - st1);
      Alcotest.(check int) "workspace: pde.panel_solves" 1 (p2 - p1);
      Alcotest.(check int) "workspace: pde.panel_steps" 40 (pst2 - pst1));
  let st, _, _ = panel_story_of_rng (Rng.create 3) 0 in
  let pp =
    { Pde.pp_xl = 1.; pp_xr = 6.; pp_nx = 11; pp_t0 = 1.; pp_stories = [| st; st |] }
  in
  try
    ignore (Pde.solve_story pp ~times:[| 2. |]);
    Alcotest.fail "expected Invalid_argument for a two-story solve_story"
  with Invalid_argument _ -> ()

let test_model_solve_panel_shared_domain () =
  let phi = model_phi () in
  let times = [| 2.; 3.; 4. |] in
  let p1 = Dl.Params.paper_hops in
  let p2 = { p1 with Dl.Params.d = p1.Dl.Params.d *. 1.5; k = 30. } in
  let sols = Dl.Model.solve_panel [| (p1, phi); (p2, phi) |] ~times in
  Array.iteri
    (fun i (p, _) ->
      let expect = Dl.Model.solve p ~phi ~times in
      check_solutions_bit_identical
        (Printf.sprintf "model panel story %d" i)
        sols.(i).Dl.Model.pde expect.Dl.Model.pde)
    [| (p1, phi); (p2, phi) |];
  (* mismatched domains are rejected *)
  let p3 = { p1 with Dl.Params.big_l = p1.Dl.Params.big_l +. 1. } in
  try
    ignore (Dl.Model.solve_panel [| (p1, phi); (p3, phi) |] ~times);
    Alcotest.fail "expected Invalid_argument for mixed domains"
  with Invalid_argument _ -> ()

(* --- eval hardening --- *)

let test_eval_rejects_nan () =
  let p, _, _ = dl_problem () in
  let sol = Pde.solve ~dt:0.01 p ~times:[| 2. |] in
  let expect_invalid x t =
    try
      ignore (Pde.eval sol ~x ~t);
      Alcotest.fail "expected Invalid_argument on NaN"
    with Invalid_argument _ -> ()
  in
  expect_invalid Float.nan 2.;
  expect_invalid 3. Float.nan;
  (* the hoisted evaluator must agree with eval on normal queries *)
  let ev = Pde.evaluator sol in
  List.iter
    (fun (x, t) ->
      Alcotest.(check bool) "evaluator = eval" true
        (Float.equal (ev ~x ~t) (Pde.eval sol ~x ~t)))
    [ (1.0, 1.0); (3.25, 1.7); (6.0, 2.0); (0.0, 0.0); (99., 99.) ]

(* --- mass conservation on the factored diffusion path (qcheck) --- *)

let prop_factored_diffusion_mass =
  QCheck.Test.make ~count:30
    ~name:"factored Imex diffusion conserves mass"
    QCheck.(pair (float_range 0.05 0.8) (int_range 31 81))
    (fun (d, nx) ->
      let p =
        {
          Pde.xl = 0.;
          xr = 10.;
          nx;
          diffusion = (fun _ -> d);
          reaction = Pde.Custom (fun ~x:_ ~t:_ ~u:_ -> 0.);
          initial = (fun x -> exp (-.((x -. 5.) ** 2.)));
          t0 = 0.;
        }
      in
      let sol =
        Pde.solve ~scheme:(Pde.Imex 0.5) ~dt:5e-3 ~reference:false p
          ~times:[| 0.7; 1.9 |]
      in
      let m0 = Pde.mass sol ~it:0 in
      let ok = ref true in
      for it = 1 to Array.length sol.Pde.ts - 1 do
        if Float.abs (Pde.mass sol ~it -. m0) > 1e-6 *. Float.max 1. m0 then
          ok := false
      done;
      !ok)

(* --- fitting-objective memo --- *)

let paper_like_phi () =
  Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
    ~densities:[| 6.0; 3.1; 2.3; 1.2; 0.7; 0.4 |]

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
          Array.map (fun t -> Dl.Model.predict sol ~x:(float_of_int x) ~t) times)
        distances;
    population = Array.map (fun _ -> 100) distances;
  }

let test_fit_identical_with_and_without_caches () =
  (* the acceptance contract: a seeded fit lands on bit-identical
     parameters with every cache enabled vs the --no-solver-cache
     configuration (reference stepper) *)
  let obs = synthetic_obs Dl.Params.paper_hops in
  let config = { Dl.Fit.default_config with starts = 2 } in
  let run () = Dl.Fit.fit ~config (Rng.create 3) obs in
  let cached = run () in
  Pde.set_use_reference_stepper true;
  let plain =
    Fun.protect ~finally:(fun () -> Pde.set_use_reference_stepper false) run
  in
  let p1 = cached.Dl.Fit.params and p2 = plain.Dl.Fit.params in
  let checkbit name a b =
    if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
      Alcotest.failf "%s differs: %.17g vs %.17g" name a b
  in
  checkbit "d" p1.Dl.Params.d p2.Dl.Params.d;
  checkbit "k" p1.Dl.Params.k p2.Dl.Params.k;
  checkbit "training error" cached.Dl.Fit.training_error
    plain.Dl.Fit.training_error;
  Alcotest.(check int) "same evaluation count" cached.Dl.Fit.evaluations
    plain.Dl.Fit.evaluations

(* --- objective failure handling --- *)

let test_objective_expected_failure_is_infinite () =
  (* a fit_times set that starts before t0 = 1 makes Model.solve raise
     Invalid_argument: objective must absorb it as +inf, not crash *)
  let obs = synthetic_obs Dl.Params.paper_hops in
  let phi = paper_like_phi () in
  let v =
    Dl.Fit.objective ~phi ~obs ~fit_times:[| 0.5 |] Dl.Params.paper_hops
  in
  Alcotest.(check bool) "expected failure maps to infinity" true
    (v = infinity)

let suite =
  [
    Alcotest.test_case "tridiag factorize = solve" `Quick
      test_factorize_matches_solve;
    Alcotest.test_case "factored reuse across rhs" `Quick
      test_factored_reused_across_rhs;
    Alcotest.test_case "solve_factored in place" `Quick
      test_solve_factored_in_place;
    Alcotest.test_case "mv_into = mv" `Quick test_mv_into_matches_mv;
    Alcotest.test_case "factorize singular" `Quick
      test_factorize_singular_raises;
    Alcotest.test_case "workspace bit-identical" `Quick
      test_workspace_bit_identical;
    Alcotest.test_case "workspace no state leak" `Quick
      test_workspace_no_state_leak;
    Alcotest.test_case "global reference toggle" `Quick
      test_global_reference_toggle;
    Alcotest.test_case "workspace counters" `Quick test_workspace_counters;
    QCheck_alcotest.to_alcotest prop_panel_bit_identity;
    Alcotest.test_case "panel reference fallback" `Quick
      test_panel_reference_fallback;
    Alcotest.test_case "panel strang rejects custom" `Quick
      test_panel_strang_rejects_custom;
    Alcotest.test_case "panel workspace reuse" `Quick
      test_panel_workspace_reuse;
    Alcotest.test_case "model solve workspace bit-identical" `Quick
      test_model_solve_workspace_bit_identical;
    Alcotest.test_case "model solve_panel shared domain" `Quick
      test_model_solve_panel_shared_domain;
    Alcotest.test_case "solve telemetry series" `Quick test_solve_telemetry;
    Alcotest.test_case "eval rejects NaN" `Quick test_eval_rejects_nan;
    QCheck_alcotest.to_alcotest prop_factored_diffusion_mass;
    Alcotest.test_case "fit identical with/without caches" `Slow
      test_fit_identical_with_and_without_caches;
    Alcotest.test_case "objective expected failure" `Quick
      test_objective_expected_failure_is_infinite;
  ]
