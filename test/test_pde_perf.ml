(* The fused panel kernel is only allowed to exist because it is
   bit-identical to the scalar stepper [Pde.solve]: same floating-point
   operations in the same order, only the array churn and
   re-factorizations removed.  These tests enforce that contract
   (per-cell Int64 bit equality, not approximate checks) for the panel
   solves and every model solve on the kernel, pin [Pde.solve]'s FTCS
   arm to a three-array oracle and the models' closed-form ∫r to a
   Simpson reference, and cover the factored-solve algebra,
   the panel workspace, the solve telemetry and the schedule checks. *)

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

let test_factorize_singular_raises () =
  let t = Tridiag.make ~sub:[| 1. |] ~diag:[| 0.; 1. |] ~sup:[| 1. |] in
  try
    ignore (Tridiag.factorize t);
    Alcotest.fail "expected Mat.Singular"
  with Mat.Singular -> ()

(* --- fixtures --- *)

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

(* snapshot times that are not multiples of dt, so the loops take
   ragged final partial steps (the kernel refills its operators for
   them) as well as macro steps *)
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

let with_obs_enabled f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* --- fused panel solves vs per-story scalar solves --- *)

(* A pseudo-random story: paper-shaped r(t) with its closed-form
   integral, as the models build it, and per-story (d, k, amplitude).
   [kind] selects the reaction representation; the [Custom] closure
   computes the same logistic formula through the boxed path.  A
   [floored] story's profile is lowered by a drawn cut and floored at
   zero, so its far cells (all of them when the cut exceeds 1) start at
   exactly 0. *)
let panel_story_of_rng ?(floored = false) rng kind =
  let d = Rng.uniform rng 0.01 0.3 in
  let a = Rng.uniform rng 0.3 1.8 in
  let b = Rng.uniform rng 0.5 2.0 in
  let c = Rng.uniform rng 0.1 0.5 in
  let growth = Dl.Growth.Exp_decay { a; b; c } in
  let r = Dl.Growth.eval growth in
  let integral t0 t1 = Dl.Growth.integral growth ~t0 ~t1 in
  let k = Rng.uniform rng 5. 40. in
  let amp = Rng.uniform rng 2. 10. in
  let reaction =
    match kind with
    | 0 -> Pde.Logistic { r; integral; k }
    | 1 -> Pde.Linear { r; integral }
    | _ -> Pde.Custom (fun ~x:_ ~t ~u -> r t *. u *. (1. -. (u /. k)))
  in
  let initial =
    if floored then begin
      let cut = Rng.uniform rng 0.2 1.1 in
      fun x -> Float.max 0. (amp *. (exp (-0.5 *. (x -. 1.)) -. cut))
    end
    else fun x -> amp *. exp (-0.5 *. (x -. 1.))
  in
  { Pde.ps_diffusion = (fun _ -> d); ps_reaction = reaction; ps_initial = initial }

(* The scalar stepper's scheme for a story: Strang's reference flow
   reads the same [integral] field the kernel does. *)
let scalar_scheme_for st = function
  | Pde.Panel_imex theta -> Pde.Imex theta
  | Pde.Panel_strang -> (
    match st.Pde.ps_reaction with
    | Pde.Logistic { integral; k; _ } ->
      Pde.Strang (Pde.logistic_reaction_step ~integral ~k)
    | Pde.Linear { integral; _ } -> Pde.Strang (Pde.linear_reaction_step ~integral)
    | Pde.Custom _ -> assert false)

let check_panel_matches_scalar ?workspace ?(nx = 25) ?(floored = fun _ -> false)
    ~scheme ~kinds seed ns =
  let rng = Rng.create seed in
  let stories =
    Array.init ns (fun s -> panel_story_of_rng ~floored:(floored s) rng (kinds s))
  in
  let pp =
    {
      Pde.pp_xl = 1.;
      pp_xr = 6.;
      pp_nx = nx;
      pp_t0 = 1.;
      pp_stories = stories;
    }
  in
  let sols = Pde.solve_panel ~scheme ~dt:0.01 ?workspace pp ~times:ragged_times in
  Alcotest.(check int) "panel story count" ns (Array.length sols);
  Array.iteri
    (fun s st ->
      let p =
        {
          Pde.xl = 1.;
          xr = 6.;
          nx;
          diffusion = st.Pde.ps_diffusion;
          reaction = st.Pde.ps_reaction;
          initial = st.Pde.ps_initial;
          t0 = 1.;
        }
      in
      let expect =
        Pde.solve ~scheme:(scalar_scheme_for st scheme) ~dt:0.01 p
          ~times:ragged_times
      in
      check_solutions_bit_identical (Printf.sprintf "panel story %d" s) sols.(s)
        expect)
    stories

let prop_panel_bit_identity =
  (* panel sizes 1/2/17, both panel schemes, ragged snapshot times and
     mixed reaction shapes — including a Custom story exercising the
     closure fallback under IMEX.  Grids of 3 and 4 nodes leave the
     Strang sweep's peeled first and last rows one or two interior rows
     between them, and floored stories start cells at exactly 0, where
     the exact flows take their zero branch.  Every column must
     reproduce the per-story scalar solve bit for bit. *)
  QCheck.Test.make ~count:30 ~name:"solve_panel bit-identical per story"
    QCheck.(quad (oneofl [ 1; 2; 17 ]) (oneofl [ 3; 4; 25 ]) bool small_nat)
    (fun (ns, nx, strang, seed) ->
      let scheme = if strang then Pde.Panel_strang else Pde.Panel_imex 0.5 in
      (* Strang panels cannot carry Custom; IMEX panels cycle all three.
         The seed shifts the cycle, so one-story panels draw every shape. *)
      let kinds s = if strang then (s + seed) mod 2 else (s + seed) mod 3 in
      let floored s = (s + seed) mod 3 <> 1 in
      check_panel_matches_scalar ~nx ~floored ~scheme ~kinds (seed + (7 * ns)) ns;
      true)

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
  let integral t0 t1 = Dl.Growth.integral params.Dl.Params.r ~t0 ~t1 in
  let scalar scheme =
    Pde.solve ~scheme ~dt:0.01
      {
        Pde.xl = params.Dl.Params.l;
        xr = params.Dl.Params.big_l;
        nx = 101;
        diffusion = (fun _ -> params.Dl.Params.d);
        reaction = Pde.Logistic { r; integral; k };
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
      (Dl.Model.Strang, Pde.Strang (Pde.logistic_reaction_step ~integral ~k));
    ]

let test_linear_model_solve_bit_identical () =
  (* Linear_model.solve must reproduce the scalar Pde.solve of the same
     problem bit for bit under both of its schemes *)
  let phi = model_phi () in
  let r = Dl.Growth.Exp_decay { a = 1.2; b = 1.4; c = 0.3 } in
  let params = Dl.Linear_model.make ~d:0.07 ~r ~l:1. ~big_l:6. in
  let integral t0 t1 = Dl.Growth.integral r ~t0 ~t1 in
  let p =
    {
      Pde.xl = 1.;
      xr = 6.;
      nx = 41;
      diffusion = (fun _ -> 0.07);
      reaction = Pde.Linear { r = Dl.Growth.eval r; integral };
      initial = Dl.Initial.to_function phi;
      t0 = 1.;
    }
  in
  List.iter
    (fun (name, scheme, scalar_scheme) ->
      let sol =
        Dl.Linear_model.solve ~scheme ~nx:41 ~dt:0.01 params ~phi
          ~times:ragged_times
      in
      check_solutions_bit_identical name sol.Dl.Linear_model.pde
        (Pde.solve ~scheme:(scalar_scheme ()) ~dt:0.01 p ~times:ragged_times))
    [
      ("linear strang", Dl.Linear_model.Strang,
       fun () -> Pde.Strang (Pde.linear_reaction_step ~integral));
      ("linear crank-nicolson", Dl.Linear_model.Crank_nicolson,
       fun () -> Pde.Imex 0.5);
    ]

(* The bit-identity tests above share the integral between their two
   sides, so they cannot see an error in it.  This pins the models'
   Strang solves, whose flows take ∫r from [Growth.integral], to the
   same flows with ∫r by Simpson's rule (n = 8): per cell to a relative
   1e-10, at the fit's resolution and at serving resolution. *)
let test_closed_form_moves_last_bits () =
  let phi = model_phi () in
  let times = [| 2.; 3.; 4.; 5.; 6. |] in
  List.iter
    (fun ((nx, dt), (name, (params : Dl.Params.t))) ->
      let name = Printf.sprintf "%s nx=%d dt=%g" name nx dt in
      let r = Dl.Growth.eval params.r and k = params.k in
      let integral a b = Quadrature.simpson r ~a ~b ~n:8 in
      let simpson reaction react =
        Pde.solve ~scheme:(Pde.Strang react) ~dt
          {
            Pde.xl = params.l;
            xr = params.big_l;
            nx;
            diffusion = (fun _ -> params.d);
            reaction;
            initial = Dl.Initial.to_function phi;
            t0 = 1.;
          }
          ~times
      in
      let check what (got : Pde.solution) (want : Pde.solution) =
        Array.iteri
          (fun it row ->
            Array.iteri
              (fun ix v ->
                let w = want.Pde.values.(it).(ix) in
                if not (Float.abs (v -. w) <= 1e-10 *. Float.abs w) then
                  Alcotest.failf "%s %s: cell (it=%d, ix=%d): %.17g vs %.17g"
                    what name it ix v w)
              row)
          got.Pde.values
      in
      check "logistic"
        (Dl.Model.solve ~scheme:Dl.Model.Strang ~nx ~dt params ~phi ~times).Dl.Model.pde
        (simpson (Pde.Logistic { r; integral; k }) (Pde.logistic_reaction_step ~integral ~k));
      check "linear"
        (Dl.Linear_model.solve ~scheme:Dl.Linear_model.Strang ~nx ~dt
           (Dl.Linear_model.of_dl params) ~phi ~times)
          .Dl.Linear_model.pde
        (simpson (Pde.Linear { r; integral }) (Pde.linear_reaction_step ~integral)))
    (List.concat_map
       (fun grid ->
         [ (grid, ("hops", Dl.Params.paper_hops));
           (grid, ("interest", Dl.Params.paper_interest)) ])
       [ (41, 0.05); (101, 0.01) ])

let test_solve_extended_bit_identical () =
  (* the future-work model: d(x) and r(x, t) vary with distance, and
     d(x) is large enough near x = 6 that FTCS sub-steps below dt *)
  let phi = model_phi () in
  let params = Dl.Params.paper_hops in
  let k = params.Dl.Params.k in
  let diffusion x = 0.05 +. (0.12 *. x) in
  let growth ~x ~t =
    Dl.Growth.eval params.Dl.Params.r t /. (1. +. (0.05 *. x))
  in
  let p =
    {
      Pde.xl = params.Dl.Params.l;
      xr = params.Dl.Params.big_l;
      nx = 41;
      diffusion;
      reaction =
        Pde.Custom (fun ~x ~t ~u -> growth ~x ~t *. u *. (1. -. (u /. k)));
      initial = Dl.Initial.to_function phi;
      t0 = 1.;
    }
  in
  Alcotest.(check bool) "ftcs sub-steps" true (0.9 *. Pde.cfl_limit p < 0.01);
  List.iter
    (fun (name, scheme, scalar_scheme) ->
      let sol =
        Dl.Model.solve_extended ~scheme ~nx:41 ~dt:0.01 params ~diffusion
          ~growth ~phi ~times:ragged_times
      in
      check_solutions_bit_identical name sol.Dl.Model.pde
        (Pde.solve ~scheme:scalar_scheme ~dt:0.01 p ~times:ragged_times))
    [
      ("extended crank-nicolson", Dl.Model.Crank_nicolson, Pde.Imex 0.5);
      ("extended strang", Dl.Model.Strang, Pde.Imex 0.5);
      ("extended ftcs", Dl.Model.Ftcs, Pde.Ftcs);
    ]

(* FTCS as the original stepper wrote it, three arrays per step: the
   operator L u, the Heun reaction increment, then their sum.  The
   oracle for [Pde.solve]'s FTCS arm, which must match it bit for bit. *)
let ftcs_oracle (p : Pde.problem) ~dt ~times =
  let n = p.Pde.nx in
  let xs = Pde.grid p in
  let h = (p.Pde.xr -. p.Pde.xl) /. float_of_int (n - 1) in
  let h2 = h ** 2. in
  let df =
    Array.init (n - 1) (fun i ->
        (p.Pde.diffusion xs.(i) +. p.Pde.diffusion xs.(i + 1)) /. 2.)
  in
  let weight i = if i = 0 || i = n - 1 then 0.5 else 1. in
  let dt_macro =
    let dmax =
      Array.fold_left (fun acc x -> Float.max acc (p.Pde.diffusion x)) 0. xs
    in
    if dmax <= 0. then dt else Float.min dt (0.9 *. (h *. h /. (2. *. dmax)))
  in
  let f = Pde.reaction_eval p.Pde.reaction in
  let step t dt u =
    let lu =
      Array.init n (fun i ->
          let flux_right =
            if i = n - 1 then 0. else df.(i) *. (u.(i + 1) -. u.(i))
          in
          let flux_left =
            if i = 0 then 0. else df.(i - 1) *. (u.(i) -. u.(i - 1))
          in
          (flux_right -. flux_left) /. (h2 *. weight i))
    in
    let dr =
      Array.mapi
        (fun i ui ->
          let k1 = f ~x:xs.(i) ~t ~u:ui in
          let k2 = f ~x:xs.(i) ~t:(t +. dt) ~u:(ui +. (dt *. k1)) in
          dt *. (k1 +. k2) /. 2.)
        u
    in
    Array.mapi (fun i ui -> ui +. (dt *. lu.(i)) +. dr.(i)) u
  in
  let u = ref (Array.map p.Pde.initial xs) and t = ref p.Pde.t0 in
  let snaps = ref [ !u ] in
  Array.iter
    (fun target ->
      while target -. !t > 1e-12 do
        let step_dt = Float.min dt_macro (target -. !t) in
        u := step !t step_dt !u;
        t := !t +. step_dt
      done;
      t := target;
      snaps := !u :: !snaps)
    times;
  { Pde.xs; ts = Array.append [| p.Pde.t0 |] times;
    values = Array.of_list (List.rev !snaps) }

let test_ftcs_matches_oracle () =
  let p, r, k = dl_problem () in
  let steep = { p with Pde.diffusion = (fun x -> 0.2 *. x) } in
  Alcotest.(check bool) "steep sub-steps" true (0.9 *. Pde.cfl_limit steep < 0.01);
  List.iter
    (fun (name, p) ->
      check_solutions_bit_identical name
        (Pde.solve ~scheme:Pde.Ftcs ~dt:0.01 p ~times:ragged_times)
        (ftcs_oracle p ~dt:0.01 ~times:ragged_times))
    [
      ("ftcs custom", p);
      ( "ftcs logistic",
        {
          p with
          Pde.reaction =
            Pde.Logistic
              { r; integral = (fun a b -> Quadrature.simpson r ~a ~b ~n:8); k };
        } );
      ("ftcs sub-stepped", steep);
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
  let st = panel_story_of_rng (Rng.create 3) 0 in
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

(* Two snapshots at one time: a schedule that repeats a time, or a
   resume recorded at its own start ([~from:(t0, u)] with [t0] among
   the times).  The bracket between them has zero width; eval must
   weigh the earlier snapshot instead of dividing 0 by 0. *)
let test_eval_equal_snapshot_times () =
  let phi = model_phi () in
  let params = Dl.Params.paper_hops in
  let at_start = Dl.Model.solve params ~phi ~times:[||] in
  let repeated = Dl.Model.solve params ~phi ~times:[| 1. |] in
  List.iter
    (fun x ->
      let v = Dl.Model.predict repeated ~x ~t:1. in
      Alcotest.(check bool) (Printf.sprintf "x = %g finite" x) true (Float.is_finite v);
      Alcotest.(check int64) (Printf.sprintf "x = %g is the t = 1 state" x)
        (Int64.bits_of_float (Dl.Model.predict at_start ~x ~t:1.))
        (Int64.bits_of_float v))
    [ 1.; 2.; 3.3; 6. ];
  Alcotest.(check (float 1e-12)) "phi at its knot x = 2" (Dl.Initial.eval phi 2.)
    (Dl.Model.predict repeated ~x:2. ~t:1.);
  let once = Dl.Model.solve params ~phi ~times:[| 2.; 3. |] in
  let twice = Dl.Model.solve params ~phi ~times:[| 2.; 3.; 3. |] in
  Alcotest.(check int64) "a repeated later time"
    (Int64.bits_of_float (Dl.Model.predict once ~x:2.5 ~t:3.))
    (Int64.bits_of_float (Dl.Model.predict twice ~x:2.5 ~t:3.))

(* --- resuming a solve --- *)

(* [solve_story ~from] continues a recorded snapshot bit for bit: the
   snapshots after the resume point equal the uninterrupted solve's,
   for both panel schemes and both named reaction shapes, from a whole
   time and from a ragged one (whose last step was partial). *)
let test_resume_bit_identical () =
  let rng = Rng.create 11 in
  List.iter
    (fun (scheme, kind, times, k0) ->
      let story = panel_story_of_rng rng kind in
      let pp =
        { Pde.pp_xl = 1.; pp_xr = 6.; pp_nx = 31; pp_t0 = 1.; pp_stories = [| story |] }
      in
      let full = Pde.solve_story ~scheme ~dt:0.01 pp ~times in
      (* resume from snapshot [k0] (index 0 is t0) *)
      let from = (full.Pde.ts.(k0), full.Pde.values.(k0)) in
      let rest = Array.sub times k0 (Array.length times - k0) in
      let resumed = Pde.solve_story ~scheme ~dt:0.01 ~from pp ~times:rest in
      check_solutions_bit_identical "resumed"
        resumed
        { full with
          Pde.ts = Array.sub full.Pde.ts k0 (Array.length rest + 1);
          values = Array.sub full.Pde.values k0 (Array.length rest + 1) };
      Alcotest.(check (float 0.)) "starts at the resume time" full.Pde.ts.(k0)
        resumed.Pde.ts.(0))
    [
      (Pde.Panel_strang, 0, [| 2.; 3.; 3.5; 4. |], 1);
      (Pde.Panel_strang, 1, [| 2.; 3.; 3.5; 4. |], 2);
      (Pde.Panel_strang, 0, ragged_times, 1);
      (Pde.Panel_imex 0.5, 0, ragged_times, 2);
      (Pde.Panel_imex 0.5, 1, [| 2.; 3.; 3.5; 4. |], 1);
      (* resuming from t0 itself is the plain solve *)
      (Pde.Panel_strang, 0, [| 2.; 3. |], 0);
    ]

(* Model.solve and Linear_model.solve pass [~from] through: a resume
   from a recorded hour records the uninterrupted solve's bits, and a
   resume at the hour it starts from records that state (the t = 4 of
   a [4; 4] schedule evaluates to it). *)
let test_model_resume_bit_identical () =
  let phi = model_phi () in
  let params = Dl.Params.paper_hops in
  let full = Dl.Model.solve params ~phi ~times:[| 2.; 3.; 4.; 4.5 |] in
  let pde = full.Dl.Model.pde in
  let from = (3., pde.Pde.values.(2)) in
  let resumed = Dl.Model.solve ~from params ~phi ~times:[| 4.; 4.5 |] in
  check_solutions_bit_identical "model resume" resumed.Dl.Model.pde
    { pde with Pde.ts = Array.sub pde.Pde.ts 2 3; values = Array.sub pde.Pde.values 2 3 };
  let at_hour = Dl.Model.solve ~from:(4., pde.Pde.values.(3)) params ~phi ~times:[| 4. |] in
  Alcotest.(check int64) "resume at its own hour"
    (Int64.bits_of_float (Dl.Model.predict full ~x:2.5 ~t:4.))
    (Int64.bits_of_float (Dl.Model.predict at_hour ~x:2.5 ~t:4.));
  let lparams = Dl.Linear_model.of_dl params in
  let lfull = Dl.Linear_model.solve lparams ~phi ~times:[| 2.; 3.; 3.25 |] in
  let lpde = lfull.Dl.Linear_model.pde in
  let lresumed =
    Dl.Linear_model.solve ~from:(2., lpde.Pde.values.(1)) lparams ~phi ~times:[| 3.; 3.25 |]
  in
  check_solutions_bit_identical "linear resume" lresumed.Dl.Linear_model.pde
    { lpde with Pde.ts = Array.sub lpde.Pde.ts 1 3; values = Array.sub lpde.Pde.values 1 3 };
  let invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  invalid "state of the wrong length" (fun () ->
      Dl.Model.solve ~from:(2., [| 1.; 2. |]) params ~phi ~times:[| 3. |]);
  invalid "infinite resume time" (fun () ->
      Dl.Model.solve ~from:(Float.neg_infinity, pde.Pde.values.(1)) params ~phi ~times:[| 3. |]);
  invalid "a time before the resume time" (fun () ->
      Dl.Model.solve ~from:(3., pde.Pde.values.(2)) params ~phi ~times:[| 2.5 |]);
  invalid "FTCS" (fun () ->
      Dl.Model.solve ~scheme:Dl.Model.Ftcs ~from:(2., pde.Pde.values.(1)) params ~phi
        ~times:[| 3. |])

(* --- schedule validation --- *)

let test_schedule_rejects_bad_times () =
  (* A NaN target used to snapshot the unstepped state (at t = 5 after
     [nan; 5.]), and +inf never returned.  Every entry point rejects
     non-finite or decreasing times, and a dt that is not > 0, with
     Invalid_argument before stepping. *)
  let p, _, _ = dl_problem () in
  let st = panel_story_of_rng (Rng.create 3) 0 in
  let pp =
    { Pde.pp_xl = 1.; pp_xr = 6.; pp_nx = 11; pp_t0 = 1.; pp_stories = [| st |] }
  in
  let phi = model_phi () in
  let linear = Dl.Linear_model.of_dl Dl.Params.paper_hops in
  let p2d =
    {
      Pde2d.xl = 1.;
      xr = 5.;
      nx = 5;
      yl = 1.;
      yr = 5.;
      ny = 5;
      dx_coef = 0.1;
      dy_coef = 0.1;
      reaction = (fun ~x:_ ~y:_ ~t:_ ~u -> u *. (1. -. (u /. 10.)));
      initial = (fun x y -> 10. /. (x +. y));
      t0 = 1.;
    }
  in
  let lap = Osn_graph.Laplacian.undirected_laplacian (Osn_graph.Generators.line 4) in
  let net = { Dl.Network_model.d = 0.1; k = 100.; r = Dl.Growth.Constant 0.8 } in
  let solvers =
    [
      ("Pde.solve", fun ~dt times -> ignore (Pde.solve ~dt p ~times));
      ("Pde.solve ftcs",
       fun ~dt times -> ignore (Pde.solve ~scheme:Pde.Ftcs ~dt p ~times));
      ("Pde.solve_panel", fun ~dt times -> ignore (Pde.solve_panel ~dt pp ~times));
      ("Pde.solve_panel empty",
       fun ~dt times ->
         ignore (Pde.solve_panel ~dt { pp with Pde.pp_stories = [||] } ~times));
      ("Pde.solve_story", fun ~dt times -> ignore (Pde.solve_story ~dt pp ~times));
      ("Model.solve",
       fun ~dt times -> ignore (Dl.Model.solve ~dt Dl.Params.paper_hops ~phi ~times));
      ("Model.solve ftcs",
       fun ~dt times ->
         ignore
           (Dl.Model.solve ~scheme:Dl.Model.Ftcs ~dt Dl.Params.paper_hops ~phi
              ~times));
      ("Linear_model.solve",
       fun ~dt times -> ignore (Dl.Linear_model.solve ~dt linear ~phi ~times));
      ("Linear_model.solve cn",
       fun ~dt times ->
         ignore
           (Dl.Linear_model.solve ~scheme:Dl.Linear_model.Crank_nicolson ~dt
              linear ~phi ~times));
      ("Pde2d.solve", fun ~dt times -> ignore (Pde2d.solve ~dt p2d ~times));
      ("Network_model.solve",
       fun ~dt times ->
         ignore
           (Dl.Network_model.solve ~dt ~laplacian:lap net
              ~i0:[| 10.; 0.; 5.; 0. |] ~times));
    ]
  in
  List.iter
    (fun (name, solve) ->
      List.iter
        (fun (case, dt, times) ->
          match solve ~dt times with
          | () -> Alcotest.failf "%s accepted %s" name case
          | exception Invalid_argument _ -> ())
        [
          ("a NaN time", 0.05, [| Float.nan; 5. |]);
          ("a NaN last time", 0.05, [| 2.; Float.nan |]);
          ("an infinite time", 0.05, [| Float.infinity |]);
          ("a -infinite time", 0.05, [| 2.; Float.neg_infinity |]);
          ("decreasing times", 0.05, [| 3.; 2. |]);
          ("dt = 0", 0., [| 2. |]);
          ("dt < 0", -0.05, [| 2. |]);
          ("dt = NaN", Float.nan, [| 2. |]);
        ];
      (* repeated and tolerance-equal times still pass *)
      solve ~dt:0.05 [| 2.; 2.; 2. -. 1e-13 |])
    solvers;
  (* A grid of fewer than three nodes, or without xl < xr, is rejected
     the same way, before any buffer is touched: the sweeps read every
     neighbour without bounds checks, and [Pde.grid]'s assertion is
     compiled out under -noassert. *)
  let params xl xr = { Dl.Params.paper_hops with Dl.Params.l = xl; big_l = xr } in
  let grid_solvers =
    [
      ("Pde.solve",
       fun ~nx ~xl ~xr ->
         ignore (Pde.solve ~dt:0.05 { p with Pde.nx; xl; xr } ~times:[| 2. |]));
      ("Pde.solve ftcs",
       fun ~nx ~xl ~xr ->
         ignore
           (Pde.solve ~scheme:Pde.Ftcs ~dt:0.05 { p with Pde.nx; xl; xr }
              ~times:[| 2. |]));
      ("Pde.solve_panel",
       fun ~nx ~xl ~xr ->
         ignore
           (Pde.solve_panel ~scheme:Pde.Panel_strang ~dt:0.05
              { pp with Pde.pp_nx = nx; pp_xl = xl; pp_xr = xr }
              ~times:[| 2. |]));
      ("Pde.solve_panel empty",
       fun ~nx ~xl ~xr ->
         ignore
           (Pde.solve_panel ~dt:0.05
              { pp with Pde.pp_nx = nx; pp_xl = xl; pp_xr = xr; pp_stories = [||] }
              ~times:[| 2. |]));
      ("Pde.solve_story",
       fun ~nx ~xl ~xr ->
         ignore
           (Pde.solve_story ~scheme:Pde.Panel_strang ~dt:0.05
              { pp with Pde.pp_nx = nx; pp_xl = xl; pp_xr = xr }
              ~times:[| 2. |]));
      ("Model.solve",
       fun ~nx ~xl ~xr ->
         ignore (Dl.Model.solve ~nx ~dt:0.05 (params xl xr) ~phi ~times:[| 2. |]));
      ("Model.solve ftcs",
       fun ~nx ~xl ~xr ->
         ignore
           (Dl.Model.solve ~scheme:Dl.Model.Ftcs ~nx ~dt:0.05 (params xl xr) ~phi
              ~times:[| 2. |]));
      ("Linear_model.solve",
       fun ~nx ~xl ~xr ->
         ignore
           (Dl.Linear_model.solve ~nx ~dt:0.05
              { linear with Dl.Linear_model.l = xl; big_l = xr }
              ~phi ~times:[| 2. |]));
    ]
  in
  List.iter
    (fun (name, solve) ->
      List.iter
        (fun (case, nx, xl, xr) ->
          match solve ~nx ~xl ~xr with
          | () -> Alcotest.failf "%s accepted %s" name case
          | exception Invalid_argument _ -> ())
        [
          ("nx = 2", 2, 1., 6.);
          ("nx = 0", 0, 1., 6.);
          ("xl = xr", 11, 3., 3.);
          ("xl > xr", 11, 6., 1.);
          ("a NaN xr", 11, 1., Float.nan);
        ];
      (* the smallest grid still solves *)
      solve ~nx:3 ~xl:1. ~xr:6.)
    grid_solvers

(* --- allocation bound on the fused panel --- *)

(* Eight stories on one grid (nx 101, dt 0.01, snapshots at t = 2..6),
   each with its own d, r(t), K and initial amplitude, and r's
   closed-form integral as [Model] passes it. *)
let alloc_panel () =
  let story i =
    let fi = float_of_int i in
    let a = 1.1 +. (0.07 *. fi) and b = 1.2 +. (0.05 *. fi) in
    let c = 0.2 +. (0.015 *. fi) in
    let growth = Dl.Growth.Exp_decay { a; b; c } in
    let r = Dl.Growth.eval growth in
    let integral t0 t1 = Dl.Growth.integral growth ~t0 ~t1 in
    let k = 18. +. (2.5 *. fi) and d = 0.03 +. (0.004 *. fi) in
    let amp = 6. +. (0.5 *. fi) in
    {
      Pde.ps_diffusion = (fun _ -> d);
      ps_reaction = Pde.Logistic { r; integral; k };
      ps_initial = (fun x -> amp *. exp (-0.5 *. (x -. 1.)));
    }
  in
  {
    Pde.pp_xl = 1.;
    pp_xr = 6.;
    pp_nx = 101;
    pp_t0 = 1.;
    pp_stories = Array.init 8 story;
  }

let test_panel_allocation_bound () =
  (* Minor words per story per solve on a shaped workspace, with
     observability off.  Allocation is deterministic for a given
     compiler, so each bound is a measured count plus 20 %: IMEX-CN's
     6,674 from when the kernel was first measured, Strang's 8,110
     from when its flow began taking ∫r from the reaction's closed
     form, and the fit solve's 2,372 from before Strang swept each
     story on its own.  A boxed float per cell and step would add
     ~100,000 to an 8-story panel's count and ~5,000 to a fit solve's. *)
  Obs.set_enabled false;
  let words_per_story ~stories solve =
    solve ();
    let reps = 10 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      solve ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int (reps * stories)
  in
  let check name words bound =
    if words > bound then
      Alcotest.failf "%s: %.0f minor words per story per solve, bound %.0f" name
        words bound
  in
  let pp = alloc_panel () in
  let ns = Array.length pp.Pde.pp_stories in
  let ws = Pde.panel_workspace () in
  let times = [| 2.; 3.; 4.; 5.; 6. |] in
  List.iter
    (fun (name, scheme, bound) ->
      check name
        (words_per_story ~stories:ns (fun () ->
             ignore (Pde.solve_panel ~scheme ~dt:0.01 ~workspace:ws pp ~times)))
        bound)
    [ ("imex-cn", Pde.Panel_imex 0.5, 8009.); ("strang", Pde.Panel_strang, 9733.) ];
  (* what every fit objective evaluation runs: one story at width 1 on
     a reused workspace, on the default fit grid (nx 41, dt 0.05,
     snapshots at t = 2..4) *)
  let cfg = Dl.Fit.default_config in
  let phi = model_phi () in
  let ws1 = Pde.panel_workspace () in
  check "fit solve"
    (words_per_story ~stories:1 (fun () ->
         ignore
           (Dl.Model.solve ~scheme:cfg.Dl.Fit.solver_scheme ~nx:cfg.Dl.Fit.solver_nx
              ~dt:cfg.Dl.Fit.solver_dt ~workspace:ws1 Dl.Params.paper_hops ~phi
              ~times:cfg.Dl.Fit.fit_times)))
    2846.

(* --- mass conservation on the factored diffusion path (qcheck) --- *)

let prop_factored_diffusion_mass =
  QCheck.Test.make ~count:30
    ~name:"factored Imex diffusion conserves mass"
    QCheck.(pair (float_range 0.05 0.8) (int_range 31 81))
    (fun (d, nx) ->
      let pp =
        {
          Pde.pp_xl = 0.;
          pp_xr = 10.;
          pp_nx = nx;
          pp_t0 = 0.;
          pp_stories =
            [|
              {
                Pde.ps_diffusion = (fun _ -> d);
                ps_reaction = Pde.Custom (fun ~x:_ ~t:_ ~u:_ -> 0.);
                ps_initial = (fun x -> exp (-.((x -. 5.) ** 2.)));
              };
            |];
        }
      in
      let sol =
        (Pde.solve_panel ~scheme:(Pde.Panel_imex 0.5) ~dt:5e-3 pp
           ~times:[| 0.7; 1.9 |]).(0)
      in
      let m0 = Pde.mass sol ~it:0 in
      let ok = ref true in
      for it = 1 to Array.length sol.Pde.ts - 1 do
        if Float.abs (Pde.mass sol ~it -. m0) > 1e-6 *. Float.max 1. m0 then
          ok := false
      done;
      !ok)

(* --- objective failure handling --- *)

let synthetic_obs params =
  let phi = model_phi () in
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

let test_objective_expected_failure_is_infinite () =
  (* a fit_times set that starts before t0 = 1 makes Model.solve raise
     Invalid_argument: objective must absorb it as +inf, not crash *)
  let obs = synthetic_obs Dl.Params.paper_hops in
  let phi = model_phi () in
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
    Alcotest.test_case "factorize singular" `Quick
      test_factorize_singular_raises;
    QCheck_alcotest.to_alcotest prop_panel_bit_identity;
    Alcotest.test_case "panel strang rejects custom" `Quick
      test_panel_strang_rejects_custom;
    Alcotest.test_case "panel workspace reuse" `Quick
      test_panel_workspace_reuse;
    Alcotest.test_case "model solve workspace bit-identical" `Quick
      test_model_solve_workspace_bit_identical;
    Alcotest.test_case "model solve_panel shared domain" `Quick
      test_model_solve_panel_shared_domain;
    Alcotest.test_case "linear model solve bit-identical" `Quick
      test_linear_model_solve_bit_identical;
    Alcotest.test_case "closed-form integral moves only last bits" `Quick
      test_closed_form_moves_last_bits;
    Alcotest.test_case "solve_extended bit-identical" `Quick
      test_solve_extended_bit_identical;
    Alcotest.test_case "ftcs matches three-array oracle" `Quick
      test_ftcs_matches_oracle;
    Alcotest.test_case "solve telemetry series" `Quick test_solve_telemetry;
    Alcotest.test_case "eval rejects NaN" `Quick test_eval_rejects_nan;
    Alcotest.test_case "eval between equal snapshot times" `Quick
      test_eval_equal_snapshot_times;
    Alcotest.test_case "resume is bit-identical" `Quick test_resume_bit_identical;
    Alcotest.test_case "model resume is bit-identical" `Quick
      test_model_resume_bit_identical;
    Alcotest.test_case "schedule rejects bad times" `Quick
      test_schedule_rejects_bad_times;
    Alcotest.test_case "panel allocation bound" `Quick
      test_panel_allocation_bound;
    QCheck_alcotest.to_alcotest prop_factored_diffusion_mass;
    Alcotest.test_case "objective expected failure" `Quick
      test_objective_expected_failure_is_infinite;
  ]
