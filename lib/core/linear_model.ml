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

let solve ?(scheme = Strang) ?(nx = 101) ?(dt = 0.01) params ~phi ~times =
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
            ps_reaction = Pde.Linear { r = Growth.eval params.r };
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
  { params; pde = Pde.solve_story ~scheme ~dt pp ~times }

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

let phi_of_obs (obs : Socialnet.Density.t) =
  let t1 = obs.Socialnet.Density.times.(0) in
  if Float.abs (t1 -. 1.) > 1e-9 then
    invalid_arg "Linear_model.fit: observations must start at t = 1 (they define phi)";
  let xs = Array.map float_of_int obs.Socialnet.Density.distances in
  let densities = Array.map (fun row -> row.(0)) obs.Socialnet.Density.density in
  Initial.of_observations ~xs ~densities

let objective ~nx ~dt ~phi ~obs ~fit_times params =
  try
    let sol = solve ~nx ~dt params ~phi ~times:fit_times in
    let predict = predictor sol in
    let err = ref 0. and count = ref 0 in
    Array.iter
      (fun x ->
        Array.iter
          (fun t ->
            let actual = Socialnet.Density.at obs ~distance:x ~time:t in
            if actual > 0. then begin
              let predicted = predict ~x:(float_of_int x) ~t in
              err := !err +. (Float.abs (predicted -. actual) /. actual);
              incr count
            end)
          fit_times)
      obs.Socialnet.Density.distances;
    if !count = 0 then infinity else !err /. float_of_int !count
  with
  | (Failure _ | Invalid_argument _ | Mat.Singular | Not_found) as e ->
    (* same blow-up policy as [Fit.objective]: bad trial points are
       penalised, genuine bugs propagate *)
    Obs.Log.warn "linear_model.objective_failed" ~fields:(fun () ->
        [ Obs.Log.str "exn" (Printexc.to_string e) ]);
    infinity

let m_fits = Obs.Metrics.counter "linear_model.fits"
let m_restarts = Obs.Metrics.counter "linear_model.restarts"
let m_objective_evals = Obs.Metrics.counter "linear_model.objective_evals"

let fit ?(config = default_fit_config) ?(pool = Parallel.Pool.sequential) rng
    (obs : Socialnet.Density.t) =
 Obs.Span.with_span "linear_model.fit" @@ fun () ->
  let distances = obs.Socialnet.Density.distances in
  if Array.length distances < 2 then
    invalid_arg "Linear_model.fit: need at least two distance groups";
  let phi = phi_of_obs obs in
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
  let starts = Stdlib.max 1 config.starts in
  let penalty_of v =
    let penalty = ref 0. in
    Array.iteri
      (fun i x ->
        let excess = Float.max 0. (Float.max (lo.(i) -. x) (x -. hi.(i))) in
        penalty := !penalty +. (excess *. excess))
      v;
    !penalty
  in
  let f v =
    objective ~nx:config.solver_nx ~dt:config.solver_dt ~phi ~obs
      ~fit_times:config.fit_times (of_vector v)
    +. penalty_of v
  in
  (* starting points drawn sequentially up front so the rng stream (and
     the result) is independent of the pool size, as in [Fit.fit] *)
  let n = Array.length lo in
  let x0s = Array.make starts [||] in
  x0s.(0) <- Array.init n (fun i -> (lo.(i) +. hi.(i)) /. 2.);
  for k = 1 to starts - 1 do
    x0s.(k) <- Array.init n (fun i -> Rng.uniform rng lo.(i) hi.(i))
  done;
  let run_restart k =
    Obs.Span.with_span "linear_model.restart"
      ~attrs:(fun () -> [ Obs.Log.int "restart" k ])
      (fun () ->
        let r = Optimize.nelder_mead ~tol:1e-6 ~max_iter:250 f ~x0:x0s.(k) in
        Obs.Metrics.incr m_restarts;
        Obs.Metrics.incr ~by:r.Optimize.evaluations m_objective_evals;
        r)
  in
  let runs =
    Parallel.Pool.parallel_map pool run_restart (Array.init starts Fun.id)
  in
  let best = ref runs.(0) in
  Array.iter (fun r -> if r.Optimize.f < !best.Optimize.f then best := r) runs;
  let params = of_vector !best.Optimize.x in
  let evaluations =
    Array.fold_left (fun acc r -> acc + r.Optimize.evaluations) 0 runs
  in
  let training_error =
    objective ~nx:config.solver_nx ~dt:config.solver_dt ~phi ~obs
      ~fit_times:config.fit_times params
  in
  Obs.Metrics.incr m_fits;
  Obs.Log.debug "linear_model.fit_done" ~fields:(fun () ->
      [
        Obs.Log.int "starts" starts;
        Obs.Log.int "evaluations" evaluations;
        Obs.Log.float "training_error" training_error;
      ]);
  { params; training_error; evaluations }
