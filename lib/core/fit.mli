(** Automatic calibration of DL-model parameters.

    The paper selects d, K and r(t) by hand (Section III.C); this
    module adds an automatic alternative so the pipeline can run on any
    story: Nelder--Mead polishes over (d, K, a, b, c) with
    [r(t) = a e^{-b(t-1)} + c], minimising the mean relative error of
    the PDE prediction against the densities observed during an early
    fitting window.  A polish evaluation is a full PDE solve on the fit
    grid, so the cold path finds its starts on cheaper models first: the
    d = 0 closed form ({!closed_form}) and the same PDE on a coarse
    grid (see {!fit}). *)

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
  starts : int;
      (** fit-grid PDE polishes (default 2, one per domain of a
          2-domain pool); see {!fit} *)
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
  evaluations : int;
      (** PDE solves spent, on the fit grid and on the cold path's
          coarse grid (the latter also counted by the
          [fit.coarse_evals] metric); the closed form's evaluations are
          not PDE solves and count in the [fit.closed_form_evals]
          metric instead *)
}

(** Warm-start input for {!fit}: a prior optimum (e.g. a persisted
    checkpoint's parameters). *)
type init = Init_params of Params.t

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
    from.

    The search is {!multi_start} over [config.starts] polishes with
    [pool] (default sequential), so the result is bit-identical for any
    pool size.  Every polish is a fit-grid Nelder--Mead from a small
    simplex (edges [max 0.02 (2 %)] of each coordinate), and the cold
    path finds their starts on cheap models:
    - polish 0 ([closed_form]): 200 points of (K, a, b, c) drawn
      uniformly in the box are scored on the d = 0 {!closed_form}, the
      best 2 are polished on it, and the better result, at the lowest d,
      starts the PDE polish;
    - polishes 1 .. starts - 1 ([coarse]): 200 points of (d, K, a, b, c),
      with d log-uniform over [d_bounds], are scored by {!objective} on
      a coarse grid (21 nodes, [dt] 0.25 h, or the fit grid where that
      is coarser), and the best [starts - 1] are polished on that grid
      before their PDE polish.
    Most stories fit best near d = 0, where the closed form is the
    model; a story that needs diffusion (an interest group empty at
    t = 1, filled from its neighbour) has its basin found by the coarse
    scan.  All 400 scan points are drawn from [rng] up front, closed-form
    points first, whatever [starts] or [init] is.

    [init] warm-starts polish 0 from a prior optimum ([Init_params],
    polished with the same small simplex) instead of the closed-form
    start.  Only polish 0 changes and the rng stream is the cold one,
    so a warm fit with [config.starts = 1] is the cheapest online
    refit and larger [starts] values keep the coarse polishes.  Counted by the
    [fit.warm_starts] metric.

    [id] labels the completed-fit {!event}; [on_fit] overrides the
    global {!set_on_fit} observer for this call only.
    @raise Invalid_argument if [obs] has fewer than two distances, or
    lacks a t = 1 snapshot while no [phi] is given. *)

type start_kind =
  | Closed_form  (** from the d = 0 closed form's optimum *)
  | Coarse       (** from a coarse-grid optimum *)
  | Warm         (** from the caller's [init] *)
  | Random       (** from the box midpoint or a uniform draw *)

type origin =
  | Point of float array  (** Nelder--Mead's default simplex around it *)
  | Simplex of float array array  (** this simplex, [n + 1] vertices *)

type start = {
  kind : start_kind;
  prepare : unit -> origin * int;
      (** the polish's origin and the PDE solves spent finding it; runs
          on the domain that polishes the start *)
}

val multi_start :
  ?pool:Parallel.Pool.t -> ?tol:float -> ?max_iter:int ->
  (unit -> float array -> float) -> start array ->
  Numerics.Optimize.result * int
(** The polishing loop every model fitter shares ({!fit},
    {!Linear_model.fit}, {!Epidemic.fit}): [multi_start make_f starts]
    prepares each start and runs Nelder--Mead ([tol] default [1e-6],
    [max_iter] default 250) from its origin on [make_f ()], and returns
    the best run and the objective evaluations summed over every start,
    its preparation included.

    [pool] (default sequential) spreads the starts over worker domains;
    a start's [prepare] and [make_f ()] run on the domain that polishes
    it, so either may own mutable state such as a solver workspace.
    The first run with the lowest objective wins, so the result is
    bit-identical for any pool size.  Each start is a [fit.restart]
    span (attributes [restart], [start], [iterations], [evaluations],
    [converged], [objective], [spread]) and counts towards the
    [fit.restarts], [fit.nm_iterations] and [fit.objective_evals]
    metrics.
    @raise Invalid_argument on an empty [starts]. *)

val box_starts :
  starts:int -> lo:float array -> hi:float array -> Numerics.Rng.t ->
  start array
(** [max 1 starts] [Random] starts in the box [\[lo, hi\]]: its midpoint,
    then points drawn uniformly from [rng], all drawn now in start
    order. *)

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
    relative error of the model under the given parameters, on the
    grid of [nx] nodes over the parameters' [\[l, L\]]; it is
    {!objective_of} applied to {!Model.solve}.  [?workspace] threads a
    reusable panel workspace into {!Model.solve} (bit-identical
    results; {!fit} keeps one per restart so every Nelder--Mead
    evaluation reuses the solver buffers). *)

val objective_of :
  nx:int -> obs:Socialnet.Density.t -> fit_times:float array ->
  l:float -> big_l:float -> ('p -> Numerics.Pde.solution) -> 'p -> float
(** The one scoring path of the PDE fitters ({!objective}, {!fit} and
    {!Linear_model.fit}).  [objective_of ~nx ~obs ~fit_times ~l ~big_l
    solve] scores [solve p], which must record the grid of [nx] nodes
    over [\[l, L\]] and the snapshot times [1; fit_times], as
    {!Model.solve} and [Linear_model.solve] do.  The score is
    [Density.mean_relative_error obs ~times:fit_times] of
    [Pde.eval (solve p)], bit for bit.

    Apply it to everything but [p] once: that locates the scored cells
    on the grid ({!Numerics.Pde.stencil}), and each call of the
    function it returns is a solve and one pass over them.  The cells
    are read-only, so the function is safe to share between domains
    when [solve] is.  A set-up or a solve that fails as expected
    ([Failure], [Invalid_argument], [Mat.Singular], [Not_found], such
    as a fit time [obs] lacks) scores [infinity] and is logged at warn
    level as [fit.objective_failed].  An observation with no positive
    cell scores [infinity] too.  Unexpected exceptions propagate. *)

val closed_form :
  ?nx:int -> phi:Initial.t -> obs:Socialnet.Density.t ->
  fit_times:float array -> l:float -> big_l:float -> float array -> float
(** The objective of the d = 0 model over [(K, a, b, c)], the
    coefficients of [r(t) = a e^{-b(t-1)} + c].  At d = 0 the DL
    equation is the logistic ODE at every node,
    [I = K phi / (phi + (K - phi) e^{-R(t)})] with
    [R(t) = Growth.integral r ~t0:1. ~t1:t], and the Strang step is
    exact, so on the grid of [nx] nodes (default 101) over [\[l, L\]]
    this equals {!objective} at d = 0 up to rounding: each cell
    interpolates between the two nodes around its distance as
    [Pde.eval] does, and a node where phi is 0 stays 0.

    Apply it to everything but the vector once: that does the set-up
    (the grid, phi at its nodes and each scored cell's bracket), and the
    function it returns costs one [exp] per fit time and one division
    per node read, with no PDE solve; it reuses one work buffer, so
    call it from one domain at a time.  A set-up {!objective} would fail
    on ([Failure], [Invalid_argument], [Mat.Singular], [Not_found], such
    as a fit time [obs] lacks) gives a function that is always
    [infinity], as does an observation with no positive cell. *)
