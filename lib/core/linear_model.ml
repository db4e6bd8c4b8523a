open Numerics

type params = {
  d : float;
  r : Growth.t;
  l : float;
  big_l : float;
}

let make ~d ~r ~l ~big_l =
  if d < 0. then invalid_arg "Linear_model.make: diffusion rate d must be >= 0";
  if l >= big_l then invalid_arg "Linear_model.make: need l < big_l";
  { d; r; l; big_l }

let of_dl (p : Params.t) =
  { d = p.Params.d; r = p.Params.r; l = p.Params.l; big_l = p.Params.big_l }

let to_dl ?(k = 1.) p = Params.make ~d:p.d ~k ~r:p.r ~l:p.l ~big_l:p.big_l

type scheme = Crank_nicolson | Strang

type solution = {
  params : params;
  pde : Pde.solution;
}

let check_times times =
  if Array.exists (fun t -> t < 1.) times then
    invalid_arg "Linear_model.solve: observation times start at t = 1"

let solve ?(scheme = Strang) ?(nx = 101) ?(dt = 0.01) ?from params ~phi ~times =
  check_times times;
  let pp =
    {
      Pde.pp_xl = params.l;
      pp_xr = params.big_l;
      pp_nx = nx;
      pp_t0 = 1.;
      pp_stories =
        [|
          {
            Pde.ps_diffusion = (fun _ -> params.d);
            ps_reaction =
              Pde.Linear
                {
                  r = Growth.eval params.r;
                  integral = (fun t0 t1 -> Growth.integral params.r ~t0 ~t1);
                };
            ps_initial = Initial.to_function phi;
          };
        |];
    }
  in
  let scheme =
    match scheme with
    | Crank_nicolson -> Pde.Panel_imex 0.5
    | Strang -> Pde.Panel_strang
  in
  { params; pde = Pde.solve_story ~scheme ~dt ?from pp ~times }

let predict sol ~x ~t = Pde.eval sol.pde ~x ~t
let predictor sol = Pde.evaluator sol.pde

type fit_config = {
  fit_times : float array;
  d_bounds : float * float;
  a_bounds : float * float;
  b_bounds : float * float;
  c_bounds : float * float;
  starts : int;
  solver_nx : int;
  solver_dt : float;
}

let default_fit_config =
  {
    fit_times = [| 2.; 3.; 4. |];
    d_bounds = (1e-4, 0.6);
    a_bounds = (0., 3.);
    b_bounds = (0.05, 3.);
    c_bounds = (0., 1.);
    starts = 4;
    solver_nx = 41;
    solver_dt = 0.05;
  }

type fit_result = {
  params : params;
  training_error : float;
  evaluations : int;
}

let m_fits = Obs.Metrics.counter "linear_model.fits"

let fit ?(config = default_fit_config) ?(pool = Parallel.Pool.sequential) rng
    (obs : Socialnet.Density.t) =
 Obs.Span.with_span "linear_model.fit" @@ fun () ->
  let distances = obs.Socialnet.Density.distances in
  if Array.length distances < 2 then
    invalid_arg "Linear_model.fit: need at least two distance groups";
  let phi = Fit.phi_of_obs obs in
  let l = float_of_int distances.(0) in
  let big_l = float_of_int distances.(Array.length distances - 1) in
  let lo = [| fst config.d_bounds; fst config.a_bounds;
              fst config.b_bounds; fst config.c_bounds |] in
  let hi = [| snd config.d_bounds; snd config.a_bounds;
              snd config.b_bounds; snd config.c_bounds |] in
  let clamp i v = Float.max lo.(i) (Float.min hi.(i) v) in
  let of_vector v =
    let d = clamp 0 v.(0) in
    let a = clamp 1 v.(1) and b = clamp 2 v.(2) and c = clamp 3 v.(3) in
    make ~d ~r:(Growth.Exp_decay { a; b; c }) ~l ~big_l
  in
  (* the same blow-up policy as [Fit.objective]: a bad trial point
     scores infinity, a genuine bug propagates *)
  let objective params =
    match
      let sol =
        solve ~nx:config.solver_nx ~dt:config.solver_dt params ~phi
          ~times:config.fit_times
      in
      Socialnet.Density.mean_relative_error obs ~times:config.fit_times
        ~predict:(predictor sol)
    with
    | _, 0 -> infinity
    | err, _ -> err
    | exception ((Failure _ | Invalid_argument _ | Mat.Singular | Not_found) as e)
      ->
      Obs.Log.warn "linear_model.objective_failed" ~fields:(fun () ->
          [ Obs.Log.str "exn" (Printexc.to_string e) ]);
      infinity
  in
  let f v = objective (of_vector v) +. Fit.box_penalty ~lo ~hi v in
  let best, evaluations =
    Fit.multi_start ~pool (fun () -> f)
      (Fit.box_starts ~starts:config.starts ~lo ~hi rng)
  in
  let params = of_vector best.Optimize.x in
  let training_error = objective params in
  Obs.Metrics.incr m_fits;
  Obs.Log.debug "linear_model.fit_done" ~fields:(fun () ->
      [
        Obs.Log.int "starts" (Stdlib.max 1 config.starts);
        Obs.Log.int "evaluations" evaluations;
        Obs.Log.float "training_error" training_error;
      ]);
  { params; training_error; evaluations }
