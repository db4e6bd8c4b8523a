open Numerics

type config = {
  fit_times : float array;
  d_bounds : float * float;
  k_headroom : float * float;
  a_bounds : float * float;
  b_bounds : float * float;
  c_bounds : float * float;
  starts : int;
  solver_nx : int;
  solver_dt : float;
  solver_scheme : Model.scheme;
}

let default_config =
  {
    fit_times = [| 2.; 3.; 4. |];
    d_bounds = (1e-4, 0.6);
    k_headroom = (1.02, 3.0);
    a_bounds = (0., 3.);
    b_bounds = (0.05, 3.);
    c_bounds = (0., 1.);
    starts = 4;
    solver_nx = 41;
    solver_dt = 0.05;
    solver_scheme = Model.Strang;
  }

type result = {
  params : Params.t;
  training_error : float;
  evaluations : int;
}

type init =
  | Init_params of Params.t
  | Init_simplex of float array array

let phi_of_obs (obs : Socialnet.Density.t) =
  let t1 = obs.Socialnet.Density.times.(0) in
  if Float.abs (t1 -. 1.) > 1e-9 then
    invalid_arg "Fit: observations must start at t = 1 (they define phi)";
  let xs = Array.map float_of_int obs.Socialnet.Density.distances in
  let densities = Array.map (fun row -> row.(0)) obs.Socialnet.Density.density in
  Initial.of_observations ~xs ~densities

let objective ?(scheme = Model.Strang) ?(nx = 101) ?(dt = 0.01) ?workspace
    ~phi ~obs ~fit_times params =
  try
    let sol =
      Model.solve ~scheme ~nx ~dt ?workspace params ~phi ~times:fit_times
    in
    match
      Socialnet.Density.mean_relative_error obs ~times:fit_times
        ~predict:(Model.predictor sol)
    with
    | _, 0 -> infinity
    | err, _ -> err
  with
  | (Failure _ | Invalid_argument _ | Mat.Singular | Not_found) as e ->
    (* expected blow-ups of a bad trial point (diverged solve, singular
       operator, out-of-range query); anything else is a bug and must
       propagate *)
    Obs.Log.warn "fit.objective_failed" ~fields:(fun () ->
        [ Obs.Log.str "exn" (Printexc.to_string e) ]);
    infinity

(* --- completed-fit hook (persistence integration) ---

   The store layer (lib/store) installs a process-wide observer here so
   every completed fit can be made durable without this module knowing
   anything about disks.  A per-call [?on_fit] overrides the global
   hook; hook failures are logged and swallowed — persistence troubles
   must not fail a fit that already succeeded. *)

type event = {
  ev_id : string option;
  ev_phi : Initial.t;
  ev_obs : Socialnet.Density.t;
  ev_config : config;
  ev_result : result;
}

let global_on_fit : (event -> unit) option ref = ref None
let set_on_fit h = global_on_fit := h
let on_fit_installed () = Option.is_some !global_on_fit

let notify_fit ?on_fit ev =
  match (match on_fit with Some _ -> on_fit | None -> !global_on_fit) with
  | None -> ()
  | Some h -> (
    try h ev
    with e ->
      Obs.Log.warn "fit.on_fit_failed" ~fields:(fun () ->
          [ Obs.Log.str "exn" (Printexc.to_string e) ]))

let m_fits = Obs.Metrics.counter "fit.fits"
let m_warm_starts = Obs.Metrics.counter "fit.warm_starts"
let m_restarts = Obs.Metrics.counter "fit.restarts"
let m_nm_iterations = Obs.Metrics.counter "fit.nm_iterations"
let m_objective_evals = Obs.Metrics.counter "fit.objective_evals"
let m_bootstrap_resamples = Obs.Metrics.counter "fit.bootstrap_resamples"

let box_penalty ~lo ~hi v =
  (* quadratic penalty keeps the simplex near the box; the parameters
     themselves are always clamped into it *)
  let penalty = ref 0. in
  Array.iteri
    (fun i x ->
      let excess = Float.max 0. (Float.max (lo.(i) -. x) (x -. hi.(i))) in
      penalty := !penalty +. (excess *. excess))
    v;
  !penalty

(* Restarts may run on separate domains; each reports its own
   evaluation count through [Optimize.result], so the sum is exact and
   race-free.  Each restart is deterministic given its x0, so the
   counts are too. *)
let multi_start ?(pool = Parallel.Pool.sequential) ?(tol = 1e-6)
    ?(max_iter = 250) ?simplex ~starts ~lo ~hi rng make_f =
  let starts = Stdlib.max 1 starts in
  (* Starting points are drawn sequentially up front, so the rng stream
     (and therefore the result) is independent of the pool size.  A
     warm [simplex] replaces restart 0's midpoint, the only start not
     drawn from [rng], so every other restart is the cold one. *)
  let x0s =
    Array.init starts (fun k ->
        Array.mapi
          (fun i lo_i ->
            if k = 0 then (lo_i +. hi.(i)) /. 2. else Rng.uniform rng lo_i hi.(i))
          lo)
  in
  let run_restart k =
    Obs.Span.with_span "fit.restart"
      ~attrs:(fun () -> [ Obs.Log.int "restart" k ])
      (fun () ->
        let f = make_f () in
        let simplex = if k = 0 then simplex else None in
        let r = Optimize.nelder_mead ~tol ~max_iter ?simplex f ~x0:x0s.(k) in
        if simplex <> None then
          Obs.Span.add_attr "warm" (Obs.Log.Bool true);
        Obs.Span.add_attr "iterations" (Obs.Log.Int r.Optimize.iterations);
        Obs.Span.add_attr "objective" (Obs.Log.Float r.Optimize.f);
        Obs.Span.add_attr "spread" (Obs.Log.Float r.Optimize.spread);
        Obs.Metrics.incr m_restarts;
        Obs.Metrics.incr ~by:r.Optimize.iterations m_nm_iterations;
        Obs.Metrics.incr ~by:r.Optimize.evaluations m_objective_evals;
        Obs.Log.debug "fit.restart" ~fields:(fun () ->
            [
              Obs.Log.int "restart" k;
              Obs.Log.int "iterations" r.Optimize.iterations;
              Obs.Log.int "evaluations" r.Optimize.evaluations;
              Obs.Log.float "objective" r.Optimize.f;
              Obs.Log.float "spread" r.Optimize.spread;
              Obs.Log.bool "converged" r.Optimize.converged;
            ]);
        r)
  in
  let runs =
    Parallel.Pool.parallel_map pool run_restart (Array.init starts Fun.id)
  in
  let best = ref runs.(0) in
  Array.iter (fun r -> if r.Optimize.f < !best.Optimize.f then best := r) runs;
  (!best, Array.fold_left (fun acc r -> acc + r.Optimize.evaluations) 0 runs)

let fit ?(config = default_config) ?(pool = Parallel.Pool.sequential) ?id
    ?init ?on_fit ?phi rng (obs : Socialnet.Density.t) =
 Obs.Span.with_span "fit.fit" @@ fun () ->
  let distances = obs.Socialnet.Density.distances in
  if Array.length distances < 2 then
    invalid_arg "Fit: need at least two distance groups";
  let phi = match phi with Some p -> p | None -> phi_of_obs obs in
  let max_density =
    Array.fold_left
      (fun acc row -> Array.fold_left Float.max acc row)
      0. obs.Socialnet.Density.density
  in
  let l = float_of_int distances.(0) in
  let big_l = float_of_int distances.(Array.length distances - 1) in
  (* densities are percentages: K above ~100 is unphysical, whatever
     the headroom multiplier says *)
  let k_lo = Float.min 100. (fst config.k_headroom *. max_density) in
  let k_hi = Float.max (k_lo +. 1e-6)
      (Float.min 105. (snd config.k_headroom *. max_density))
  in
  let lo = [| fst config.d_bounds; k_lo; fst config.a_bounds;
              fst config.b_bounds; fst config.c_bounds |] in
  let hi = [| snd config.d_bounds; k_hi; snd config.a_bounds;
              snd config.b_bounds; snd config.c_bounds |] in
  let clamp i v = Float.max lo.(i) (Float.min hi.(i) v) in
  let of_vector v =
    let d = clamp 0 v.(0) and k = clamp 1 v.(1) in
    let a = clamp 2 v.(2) and b = clamp 3 v.(3) and c = clamp 4 v.(4) in
    Params.make ~d ~k ~r:(Growth.Exp_decay { a; b; c }) ~l ~big_l
  in
  let make_f () =
    (* One panel workspace per restart, captured by the closure: the
       pool hands a restart to exactly one worker domain, so the
       workspace is domain-private, and every objective evaluation of
       the restart's Nelder--Mead loop reuses the same solver buffers
       (counted by pde.panel_reuses).  Reuse is bit-invisible: the
       panel path is bit-identical to the scalar solve. *)
    let workspace = Pde.panel_workspace () in
    fun v ->
      objective ~scheme:config.solver_scheme ~nx:config.solver_nx
        ~dt:config.solver_dt ~workspace ~phi ~obs ~fit_times:config.fit_times
        (of_vector v)
      +. box_penalty ~lo ~hi v
  in
  let n = Array.length lo in
  let vector_of_params (p : Params.t) =
    let a, b, c =
      match p.Params.r with
      | Growth.Exp_decay { a; b; c } -> (a, b, c)
      | Growth.Constant v ->
        (0., (fst config.b_bounds +. snd config.b_bounds) /. 2., v)
    in
    Array.mapi (fun i x -> clamp i x) [| p.Params.d; p.Params.k; a; b; c |]
  in
  let simplex =
    match init with
    | None -> None
    | Some (Init_simplex vs) ->
      if Array.length vs <> n + 1
         || Array.exists (fun v -> Array.length v <> n) vs
      then
        invalid_arg
          (Printf.sprintf "Fit: init simplex must be %d vertices of length %d"
             (n + 1) n);
      Some vs
    | Some (Init_params p) ->
      (* a local simplex around the prior optimum: small edges so the
         polish stays near the checkpoint and converges in few solves *)
      let v0 = vector_of_params p in
      let edge i = Float.max 0.02 (0.02 *. Float.abs v0.(i)) in
      Some
        (Array.init (n + 1) (fun k ->
             let v = Array.copy v0 in
             if k > 0 then v.(k - 1) <- v.(k - 1) +. edge (k - 1);
             v))
  in
  if simplex <> None then Obs.Metrics.incr m_warm_starts;
  let best, evaluations =
    multi_start ~pool ?simplex ~starts:config.starts ~lo ~hi rng make_f
  in
  let params = of_vector best.Optimize.x in
  let training_error =
    objective ~scheme:config.solver_scheme ~phi ~obs
      ~fit_times:config.fit_times params
  in
  Obs.Metrics.incr m_fits;
  Obs.Log.debug "fit.done" ~fields:(fun () ->
      [
        Obs.Log.int "starts" (Stdlib.max 1 config.starts);
        Obs.Log.bool "warm" (simplex <> None);
        Obs.Log.int "evaluations" evaluations;
        Obs.Log.float "best_objective" best.Optimize.f;
        Obs.Log.float "training_error" training_error;
      ]);
  let result = { params; training_error; evaluations } in
  notify_fit ?on_fit
    { ev_id = id; ev_phi = phi; ev_obs = obs; ev_config = config;
      ev_result = result };
  result

type uncertainty = {
  d_ci : float * float;
  k_ci : float * float;
  r1_ci : float * float;
  fits : result array;
}

let bootstrap ?(config = default_config) ?(pool = Parallel.Pool.sequential)
    ?(resamples = 20) ?(confidence = 0.9) rng (obs : Socialnet.Density.t) =
 Obs.Span.with_span "fit.bootstrap"
   ~attrs:(fun () -> [ Obs.Log.int "resamples" resamples ])
 @@ fun () ->
  let phi = phi_of_obs obs in
  let base = fit ~config ~pool ~phi rng obs in
  let times = obs.Socialnet.Density.times in
  let sol = Model.solve base.params ~phi ~times in
  (* residuals of the base fit at every observed cell (t > 1) *)
  let fitted ix it =
    Model.predict sol
      ~x:(float_of_int obs.Socialnet.Density.distances.(ix))
      ~t:times.(it)
  in
  let residuals = ref [] in
  Array.iteri
    (fun ix row ->
      Array.iteri
        (fun it v -> if it > 0 then residuals := (v -. fitted ix it) :: !residuals)
        row)
    obs.Socialnet.Density.density;
  let residuals = Array.of_list !residuals in
  let n_res = Array.length residuals in
  if n_res = 0 then invalid_arg "Fit.bootstrap: no cells beyond t = 1";
  let refits =
    Array.init resamples (fun _ ->
        Obs.Metrics.incr m_bootstrap_resamples;
        let density =
          Array.mapi
            (fun ix row ->
              Array.mapi
                (fun it v ->
                  if it = 0 then v
                  else
                    Float.max 0.
                      (fitted ix it +. residuals.(Rng.int rng n_res)))
                row)
            obs.Socialnet.Density.density
        in
        (* resampling keeps the t = 1 column, and with it phi *)
        fit ~config ~pool ~phi rng { obs with Socialnet.Density.density })
  in
  let ci of_params =
    let values = Array.map (fun r -> of_params r.params) refits in
    let alpha = (1. -. confidence) /. 2. in
    (Stats.quantile values alpha, Stats.quantile values (1. -. alpha))
  in
  {
    d_ci = ci (fun p -> p.Params.d);
    k_ci = ci (fun p -> p.Params.k);
    r1_ci = ci (fun p -> Growth.eval p.Params.r 1.);
    fits = refits;
  }
