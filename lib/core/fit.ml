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
    starts = 2;
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

(* expected blow-ups of a bad trial point (diverged solve, singular
   operator, out-of-range query) score infinity; anything else is a bug
   and must propagate *)
let log_failure e =
  Obs.Log.warn "fit.objective_failed" ~fields:(fun () ->
      [ Obs.Log.str "exn" (Printexc.to_string e) ])

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
    log_failure e;
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
let m_closed_form_evals = Obs.Metrics.counter "fit.closed_form_evals"
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

(* --- the d = 0 closed form ---

   At d = 0 the DL equation decouples node by node into the logistic
   ODE, I = K phi / (phi + (K - phi) e^{-R(t)}) with R(t) = ∫₁ᵗ r.  The
   Strang kernel's step is exact there (its diffusion solve is the
   identity), so on a grid of [nx] nodes this is the d = 0 model up to
   rounding.  Each scored cell interpolates between the two nodes around
   its distance as [Pde.eval] does, at a snapshot time, where the time
   weight is 0. *)

let[@inline] logistic_node ~k ~decay p =
  if p = 0. then 0. else k *. p /. (p +. ((k -. p) *. decay))

let closed_form ?(nx = 101) ~phi ~obs ~fit_times ~l ~big_l =
  match
    (* [Model.solve]'s schedule checks, so a schedule the solver
       refuses scores infinity here too *)
    Array.iteri
      (fun k t ->
        let prev = if k = 0 then 1. else fit_times.(k - 1) in
        if not (Float.is_finite t && t >= 1. && t >= prev -. 1e-12) then
          invalid_arg "Fit.closed_form: fit times must be finite, >= 1 and increasing")
      fit_times;
    if nx < 3 || not (big_l > l) then
      invalid_arg "Fit.closed_form: need nx >= 3 and l < big_l";
    let xs = Vec.linspace l big_l nx in
    let phis = Array.map (Initial.to_function phi) xs in
    (* the cells [Density.mean_relative_error] scores, in its order *)
    let cells = ref [] in
    Array.iter
      (fun distance ->
        Array.iteri
          (fun it time ->
            let actual = Socialnet.Density.at obs ~distance ~time in
            if actual > 0. then begin
              let x = Float.max xs.(0) (Float.min xs.(nx - 1) (float_of_int distance)) in
              let i = Interp.bracket xs x in
              let i1 = Stdlib.min (i + 1) (nx - 1) in
              let wx = if i1 = i then 0. else (x -. xs.(i)) /. (xs.(i1) -. xs.(i)) in
              cells := (it, i, i1, wx, actual) :: !cells
            end)
          fit_times)
      obs.Socialnet.Density.distances;
    (phis, Array.of_list (List.rev !cells))
  with
  | exception ((Failure _ | Invalid_argument _ | Mat.Singular | Not_found) as e) ->
    (* [objective]'s policy: a set-up the solver refuses (a fit time the
       observation lacks, say) scores infinity *)
    log_failure e;
    fun _ -> infinity
  | _, [||] -> fun _ -> infinity
  | phis, cells ->
    let n = Array.length cells in
    let c_it = Array.map (fun (it, _, _, _, _) -> it) cells in
    let c_i = Array.map (fun (_, i, _, _, _) -> i) cells in
    let c_i1 = Array.map (fun (_, _, i1, _, _) -> i1) cells in
    let c_wx = Array.map (fun (_, _, _, wx, _) -> wx) cells in
    let c_actual = Array.map (fun (_, _, _, _, a) -> a) cells in
    let nt = Array.length fit_times in
    let decay = Array.make nt 0. in
    fun v ->
      let k = v.(0) in
      let r = Growth.Exp_decay { a = v.(1); b = v.(2); c = v.(3) } in
      for it = 0 to nt - 1 do
        decay.(it) <- exp (-.Growth.integral r ~t0:1. ~t1:fit_times.(it))
      done;
      let err = ref 0. in
      for c = 0 to n - 1 do
        let decay = decay.(c_it.(c)) and wx = c_wx.(c) and actual = c_actual.(c) in
        let predicted =
          ((1. -. wx) *. logistic_node ~k ~decay phis.(c_i.(c)))
          +. (wx *. logistic_node ~k ~decay phis.(c_i1.(c)))
        in
        err := !err +. (Float.abs (predicted -. actual) /. actual)
      done;
      !err /. float_of_int n

(* --- the search ---

   A start is prepared on the domain that polishes it, so its scan and
   cheap polish run in parallel with the other starts'. *)

type start_kind = Closed_form | Coarse | Warm | Random

let start_kind_name = function
  | Closed_form -> "closed_form"
  | Coarse -> "coarse"
  | Warm -> "warm"
  | Random -> "random"

type origin = Point of float array | Simplex of float array array

type start = { kind : start_kind; prepare : unit -> origin * int }

let box_starts ~starts ~lo ~hi rng =
  (* drawn now, in start order, so the rng stream (and therefore the
     result) is independent of the pool size *)
  Array.init (Stdlib.max 1 starts) (fun k ->
      let x0 =
        Array.mapi
          (fun i lo_i ->
            if k = 0 then (lo_i +. hi.(i)) /. 2. else Rng.uniform rng lo_i hi.(i))
          lo
      in
      { kind = Random; prepare = (fun () -> (Point x0, 0)) })

(* The first run with the lowest objective. *)
let first_lowest runs =
  Array.fold_left
    (fun best r -> if r.Optimize.f < best.Optimize.f then r else best)
    runs.(0) runs

(* Polishes may run on separate domains; each reports its own
   evaluation count, so the sum is exact and race-free.  Each polish is
   deterministic given its start, so the counts are too. *)
let multi_start ?(pool = Parallel.Pool.sequential) ?(tol = 1e-6)
    ?(max_iter = 250) make_f starts =
  if Array.length starts = 0 then invalid_arg "Fit.multi_start: no starts";
  let run_start k =
    let st = starts.(k) in
    Obs.Span.with_span "fit.restart"
      ~attrs:(fun () ->
        [ Obs.Log.int "restart" k; Obs.Log.str "start" (start_kind_name st.kind) ])
      (fun () ->
        let origin, prepared = st.prepare () in
        let f = make_f () in
        let r =
          match origin with
          | Point x0 -> Optimize.nelder_mead ~tol ~max_iter f ~x0
          | Simplex s -> Optimize.nelder_mead ~tol ~max_iter ~simplex:s f ~x0:s.(0)
        in
        let evaluations = prepared + r.Optimize.evaluations in
        Obs.Span.add_attr "iterations" (Obs.Log.Int r.Optimize.iterations);
        Obs.Span.add_attr "evaluations" (Obs.Log.Int evaluations);
        Obs.Span.add_attr "converged" (Obs.Log.Bool r.Optimize.converged);
        Obs.Span.add_attr "objective" (Obs.Log.Float r.Optimize.f);
        Obs.Span.add_attr "spread" (Obs.Log.Float r.Optimize.spread);
        Obs.Metrics.incr m_restarts;
        Obs.Metrics.incr ~by:r.Optimize.iterations m_nm_iterations;
        Obs.Metrics.incr ~by:evaluations m_objective_evals;
        Obs.Log.debug "fit.restart" ~fields:(fun () ->
            [
              Obs.Log.int "restart" k;
              Obs.Log.str "start" (start_kind_name st.kind);
              Obs.Log.int "iterations" r.Optimize.iterations;
              Obs.Log.int "evaluations" evaluations;
              Obs.Log.float "objective" r.Optimize.f;
              Obs.Log.float "spread" r.Optimize.spread;
              Obs.Log.bool "converged" r.Optimize.converged;
            ]);
        (r, evaluations))
  in
  let runs =
    Parallel.Pool.parallel_map pool run_start
      (Array.init (Array.length starts) Fun.id)
  in
  (first_lowest (Array.map fst runs), Array.fold_left (fun acc (_, e) -> acc + e) 0 runs)

(* The cold path's sizes.  On calibrate's 24 items over 10 seeds each
   (2-core Xeon, OCaml 5.1.1), 200-point scans, the top 2 closed-form
   points polished and a 21-node, 0.25 h coarse grid put every item's
   median training error at or below the 4-restart random search's,
   with about a third of its fit-grid solves.  Story 345's interest
   group 1 is empty at t = 1 and only diffusion fills it, so its basin
   (t2-4, random search median 0.33741) is the one the sizes must find:
   a coarse grid of 11 nodes at 0.5 h reached 0.33854, one of 41 nodes
   at 0.25 h 0.33748, and 21 nodes at 0.25 h 0.33719.  Without the
   coarse lane (every polish from the closed form) it reached 0.34627,
   and story 56's hops t2-4 0.12419 against 0.12404. *)
let scan_points = 200
let closed_form_polishes = 2
let coarse_nx = 21
let coarse_dt = 0.25

(* Indices of [scores] from lowest to highest, ties in index order. *)
let ranking scores =
  let order = Array.init (Array.length scores) Fun.id in
  Array.stable_sort (fun i j -> Float.compare scores.(i) scores.(j)) order;
  order

(* A value computed once, by whichever start needs it first. *)
let shared f =
  let m = Mutex.create () and v = ref None in
  fun () ->
    Mutex.protect m (fun () ->
        match !v with
        | Some x -> (x, false)
        | None ->
          let x = f () in
          v := Some x;
          (x, true))

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
  let n = Array.length lo in
  let clamp i v = Float.max lo.(i) (Float.min hi.(i) v) in
  let of_vector v =
    let d = clamp 0 v.(0) and k = clamp 1 v.(1) in
    let a = clamp 2 v.(2) and b = clamp 3 v.(3) and c = clamp 4 v.(4) in
    Params.make ~d ~k ~r:(Growth.Exp_decay { a; b; c }) ~l ~big_l
  in
  let objective_on ~nx ~dt () =
    (* One panel workspace per closure, and one closure per start: the
       pool hands a start to exactly one worker domain, so the
       workspace is domain-private, and every objective evaluation of
       the start's Nelder--Mead loop reuses the same solver buffers
       (counted by pde.panel_reuses).  Reuse is bit-invisible: the
       panel path is bit-identical to the scalar solve. *)
    let workspace = Pde.panel_workspace () in
    fun v ->
      objective ~scheme:config.solver_scheme ~nx ~dt ~workspace ~phi ~obs
        ~fit_times:config.fit_times (of_vector v)
      +. box_penalty ~lo ~hi v
  in
  let make_f = objective_on ~nx:config.solver_nx ~dt:config.solver_dt in
  (* A local simplex around [v0]: small edges, so the polish stays in
     the basin it starts in and converges in few solves. *)
  let small_simplex v0 =
    let edge i = Float.max 0.02 (0.02 *. Float.abs v0.(i)) in
    Simplex
      (Array.init (n + 1) (fun k ->
           let v = Array.copy v0 in
           if k > 0 then v.(k - 1) <- v.(k - 1) +. edge (k - 1);
           v))
  in
  let warm =
    match init with
    | None -> None
    | Some (Init_simplex vs) ->
      if Array.length vs <> n + 1
         || Array.exists (fun v -> Array.length v <> n) vs
      then
        invalid_arg
          (Printf.sprintf "Fit: init simplex must be %d vertices of length %d"
             (n + 1) n);
      Some (Simplex vs)
    | Some (Init_params p) ->
      let a, b, c =
        match p.Params.r with
        | Growth.Exp_decay { a; b; c } -> (a, b, c)
        | Growth.Constant v ->
          (0., (fst config.b_bounds +. snd config.b_bounds) /. 2., v)
      in
      Some (small_simplex (Array.mapi clamp [| p.Params.d; p.Params.k; a; b; c |]))
  in
  (* Every scan point is drawn now, closed-form points first, whatever
     [starts] or [init] is, so the rng stream does not depend on them. *)
  let uniform i = Rng.uniform rng lo.(i) hi.(i) in
  let closed_form_points =
    Array.init scan_points (fun _ -> Array.init (n - 1) (fun i -> uniform (i + 1)))
  in
  let coarse_points =
    Array.init scan_points (fun _ ->
        Array.init n (fun i ->
            if i = 0 && lo.(0) > 0. then
              exp (Rng.uniform rng (log lo.(0)) (log hi.(0)))
            else uniform i))
  in
  let cheap_polish f x0 = Optimize.nelder_mead ~tol:1e-6 ~max_iter:250 f ~x0 in
  (* polish 0, cold: the best of the d = 0 closed form over (K, a, b, c),
     polished at the lowest d *)
  let closed_form_start () =
    let cf =
      closed_form ~nx:config.solver_nx ~phi ~obs ~fit_times:config.fit_times ~l ~big_l
    in
    let lo4 = Array.sub lo 1 (n - 1) and hi4 = Array.sub hi 1 (n - 1) in
    let clamped = Array.make (n - 1) 0. in
    let evals = ref 0 in
    let f v =
      incr evals;
      for i = 0 to n - 2 do
        clamped.(i) <- clamp (i + 1) v.(i)
      done;
      cf clamped +. box_penalty ~lo:lo4 ~hi:hi4 v
    in
    let order = ranking (Array.map f closed_form_points) in
    let best =
      first_lowest
        (Array.init closed_form_polishes (fun j ->
             cheap_polish f closed_form_points.(order.(j))))
    in
    Obs.Metrics.incr ~by:!evals m_closed_form_evals;
    Obs.Span.add_attr "closed_form_objective" (Obs.Log.Float best.Optimize.f);
    ( small_simplex
        (Array.init n (fun i -> if i = 0 then lo.(0) else clamp i best.Optimize.x.(i - 1))),
      0 )
  in
  (* polishes 1 .. starts - 1: the best points of one scan of the same
     PDE on a coarse grid, each polished there first *)
  let coarse_nx = Stdlib.min coarse_nx config.solver_nx in
  let coarse_dt = Float.max coarse_dt config.solver_dt in
  let coarse_order =
    shared (fun () ->
        ranking (Array.map (objective_on ~nx:coarse_nx ~dt:coarse_dt ()) coarse_points))
  in
  let coarse_start j () =
    let order, scanned = coarse_order () in
    let r =
      cheap_polish
        (objective_on ~nx:coarse_nx ~dt:coarse_dt ())
        coarse_points.(order.(Stdlib.min j (scan_points - 1)))
    in
    let coarse_evaluations =
      r.Optimize.evaluations + if scanned then scan_points else 0
    in
    Obs.Span.add_attr "coarse_evaluations" (Obs.Log.Int coarse_evaluations);
    (small_simplex (Array.mapi clamp r.Optimize.x), coarse_evaluations)
  in
  let starts =
    Array.init (Stdlib.max 1 config.starts) (fun k ->
        if k > 0 then { kind = Coarse; prepare = coarse_start (k - 1) }
        else
          match warm with
          | Some origin -> { kind = Warm; prepare = (fun () -> (origin, 0)) }
          | None -> { kind = Closed_form; prepare = closed_form_start })
  in
  if warm <> None then Obs.Metrics.incr m_warm_starts;
  let best, evaluations = multi_start ~pool make_f starts in
  let params = of_vector best.Optimize.x in
  let training_error =
    objective ~scheme:config.solver_scheme ~phi ~obs
      ~fit_times:config.fit_times params
  in
  Obs.Metrics.incr m_fits;
  Obs.Log.debug "fit.done" ~fields:(fun () ->
      [
        Obs.Log.int "starts" (Stdlib.max 1 config.starts);
        Obs.Log.bool "warm" (warm <> None);
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
