(** Automatic calibration of DL-model parameters.

    The paper selects d, K and r(t) by hand (Section III.C); this
    module adds an automatic alternative so the pipeline can run on any
    story: multi-start Nelder--Mead over (d, K, a, b, c) with
    [r(t) = a e^{-b(t-1)} + c], minimising the mean relative error of
    the PDE prediction against the densities observed during an early
    fitting window.  Every objective evaluation is a full PDE solve;
    defaults keep a fit under a second. *)

type config = {
  fit_times : float array;
      (** observation times used for calibration (default [2; 3; 4] —
          strictly earlier than the t = 5, 6 cells it will be judged
          on) *)
  d_bounds : float * float;    (** default (1e-4, 0.6) *)
  k_headroom : float * float;
      (** K search range as multiples of the max observed density
          (default (1.02, 3.0)) *)
  a_bounds : float * float;    (** default (0., 3.) *)
  b_bounds : float * float;    (** default (0.05, 3.) *)
  c_bounds : float * float;    (** default (0., 1.) *)
  starts : int;                (** Nelder--Mead restarts (default 4) *)
  solver_nx : int;
      (** grid resolution used {e during} fitting (default 41 — final
          predictions still use the full-resolution solver) *)
  solver_dt : float;           (** fitting time step (default 0.05) *)
  solver_scheme : Model.scheme;
      (** PDE scheme used for the fitting solves {e and} the reported
          training error (default [Strang]).  Part of a fit's solver
          signature: the serving layer keys its fit cache on it, and
          the persistent store records it with every checkpoint. *)
}

val default_config : config

type result = {
  params : Params.t;
  training_error : float;
      (** mean relative error over the fitting cells, evaluated once
          more at the end on the serving grid ([nx] 101, [dt] 0.01 h,
          under [solver_scheme]), not on the fitting grid
          ([solver_nx], [solver_dt]) the search ran on *)
  evaluations : int;  (** number of PDE solves spent *)
}

(** Warm-start input for {!fit}: a prior optimum (e.g. a persisted
    checkpoint's parameters) or an explicit Nelder--Mead simplex of
    [n+1 = 6] vertices over [(d, K, a, b, c)]. *)
type init =
  | Init_params of Params.t
  | Init_simplex of float array array

(** A completed calibration, as seen by the {!set_on_fit} observer:
    everything a persistence layer needs to checkpoint the fit. *)
type event = {
  ev_id : string option;  (** caller-supplied label ([fit]'s [?id]) *)
  ev_phi : Initial.t;  (** the initial density the fit solved from *)
  ev_obs : Socialnet.Density.t;
  ev_config : config;
  ev_result : result;
}

val set_on_fit : (event -> unit) option -> unit
(** Install (or clear) the process-wide completed-fit observer.  It
    runs on the calling domain after each successful {!fit} — including
    the refits inside {!bootstrap} and fits triggered through
    [Pipeline.run] — and its exceptions are logged
    ([fit.on_fit_failed], warn) and swallowed: persistence trouble
    must not fail a fit that already succeeded.  [lib/store] installs
    its WAL appender here ([Store.attach_fit_hook]). *)

val on_fit_installed : unit -> bool

val fit :
  ?config:config -> ?pool:Parallel.Pool.t ->
  ?id:string -> ?init:init -> ?on_fit:(event -> unit) ->
  ?phi:Initial.t ->
  Numerics.Rng.t -> Socialnet.Density.t -> result
(** [fit rng obs] calibrates against [obs], whose first recorded time
    must be 1 (it provides phi).  The domain [\[l, L\]] is taken from
    the observed distance labels.  [phi] (default [phi_of_obs obs]) is
    the initial density every solve starts from; a caller that built
    phi another way (a PCHIP construction) or already holds it passes
    it here, so the fit is calibrated on the phi it will be solved
    from.  The search is {!multi_start} with [pool] (default
    sequential), so the result is bit-identical for any pool size.

    [init] warm-starts restart 0 from a prior optimum
    ([Init_params], polished with a small local simplex) or an
    explicit simplex ([Init_simplex]) instead of the box-midpoint
    start.  Only restart 0 changes — the remaining starts still come
    from [rng] in the cold order, so a warm fit with [config.starts=1]
    is the cheapest online refit and larger [starts] values keep
    their exploration.  Warm fits typically spend far fewer objective
    [evaluations]; counted by the [fit.warm_starts] metric.

    [id] labels the completed-fit {!event}; [on_fit] overrides the
    global {!set_on_fit} observer for this call only.
    @raise Invalid_argument if [obs] has fewer than two distances,
    lacks a t = 1 snapshot while no [phi] is given, or if an
    [Init_simplex] has the wrong shape. *)

val multi_start :
  ?pool:Parallel.Pool.t -> ?tol:float -> ?max_iter:int ->
  ?simplex:float array array ->
  starts:int -> lo:float array -> hi:float array -> Numerics.Rng.t ->
  (unit -> float array -> float) -> Numerics.Optimize.result * int
(** The calibration search every model fitter shares ({!fit},
    {!Linear_model.fit}, {!Epidemic.fit}): [multi_start ~starts ~lo ~hi
    rng make_f] runs Nelder--Mead ([tol] default [1e-6], [max_iter]
    default 250) from [max 1 starts] points and returns the best run
    and the objective evaluations summed over every run.

    Restart 0 starts from the midpoint of the box [\[lo, hi\]], or from
    the warm [simplex] when one is given; the others start from points
    drawn uniformly in the box from [rng], all drawn up front in
    restart order.  [pool] (default sequential) spreads the restarts
    over worker domains; [make_f ()] builds each restart's objective
    on the domain that runs it, so it may own mutable state such as a
    solver workspace.  The first run with the lowest objective wins,
    so the result is bit-identical for any pool size.  Each restart is
    a [fit.restart] span and counts towards the [fit.restarts],
    [fit.nm_iterations] and [fit.objective_evals] metrics. *)

val box_penalty : lo:float array -> hi:float array -> float array -> float
(** Sum of squared excursions of a point outside the box
    [\[lo, hi\]]: added to an objective that clamps its parameters into
    the box, it keeps the simplex near the box. *)

type uncertainty = {
  d_ci : float * float;
  k_ci : float * float;
  r1_ci : float * float;  (** CI on the initial growth rate r(1) *)
  fits : result array;    (** the individual bootstrap refits *)
}

val bootstrap :
  ?config:config -> ?pool:Parallel.Pool.t ->
  ?resamples:int -> ?confidence:float ->
  Numerics.Rng.t -> Socialnet.Density.t -> uncertainty
(** Residual-bootstrap parameter uncertainty: fit once, resample the
    per-cell residuals onto the fitted surface, refit (default 20
    resamples, 90 % percentile intervals).  Each resample costs a full
    {!fit}, so budget accordingly.  [pool] parallelises the restarts
    {e inside} each refit (the resamples themselves draw from the
    shared [rng] and stay sequential so the stream is unchanged). *)

val phi_of_obs : Socialnet.Density.t -> Initial.t
(** The initial density phi an observation defines: its t = 1 snapshot,
    interpolated over the distance axis (exposed for the {!Predictor}
    registry and tests).
    @raise Invalid_argument if the first recorded time is not 1. *)

val objective :
  ?scheme:Model.scheme -> ?nx:int -> ?dt:float ->
  ?workspace:Numerics.Pde.panel_workspace ->
  phi:Initial.t -> obs:Socialnet.Density.t -> fit_times:float array ->
  Params.t -> float
(** The raw fitting objective (exposed for tests and ablations): mean
    relative error of the model under the given parameters, [infinity]
    if the solve blows up on an expected failure ([Failure],
    [Invalid_argument], [Mat.Singular], [Not_found] — logged at warn
    level as [fit.objective_failed]).  Unexpected exceptions
    propagate.  [?workspace] threads a reusable panel workspace into
    {!Model.solve} (bit-identical results; {!fit} keeps one per
    restart so every Nelder--Mead evaluation reuses the solver
    buffers). *)
