(** Solving the diffusive logistic model (Equation 4).

    Wraps {!Numerics.Pde} with the DL-specific right-hand side and
    exposes predictions at the (distance, time) points the paper
    reports.  The default scheme is Strang splitting with the exact
    logistic reaction flow, which is both unconditionally stable and
    second-order for this equation. *)

type scheme = Ftcs | Crank_nicolson | Strang

type solution = {
  params : Params.t;
  pde : Numerics.Pde.solution;
}

val solve :
  ?scheme:scheme -> ?nx:int -> ?dt:float ->
  ?workspace:Numerics.Pde.panel_workspace ->
  Params.t -> phi:Initial.t -> times:float array -> solution
(** [solve params ~phi ~times] integrates from t = 1 (the paper's
    initial observation hour) and records a snapshot at each requested
    time (all must be [>= 1]).  Defaults: [Strang], [nx = 101] grid
    points, [dt = 0.01] hours.

    [Strang] and [Crank_nicolson] run the fused panel kernel at width
    1, bit-identical to the scalar {!Numerics.Pde.solve}: with
    [?workspace] through {!Numerics.Pde.solve_panel}, reusing the
    workspace's buffers across calls, and otherwise through
    {!Numerics.Pde.solve_story} on private buffers.  Pass one workspace
    per fit restart / pool worker; never share one across domains
    concurrently.  [Ftcs] runs the scalar solver and ignores
    [?workspace].
    @raise Invalid_argument on a time below 1, a NaN or infinite time,
    or decreasing times. *)

val solve_panel :
  ?scheme:scheme -> ?nx:int -> ?dt:float ->
  ?workspace:Numerics.Pde.panel_workspace ->
  (Params.t * Initial.t) array -> times:float array -> solution array
(** Fused multi-story solve: every story (params, initial profile)
    must share the domain [(l, L)] ([Invalid_argument] otherwise); all
    stories advance in lockstep through the fused panel kernel.  Each
    element of the result is bit-identical to {!solve} on that story
    alone.  FTCS falls back to per-story solves (its CFL
    sub-stepping is per-story). *)

val solve_extended :
  ?scheme:scheme -> ?nx:int -> ?dt:float ->
  Params.t -> diffusion:(float -> float) ->
  growth:(x:float -> t:float -> float) ->
  phi:Initial.t -> times:float array -> solution
(** The paper's future-work generalisation: diffusion [d(x)] varying
    with distance and growth [r(x, t)] varying with both distance and
    time.  [Crank_nicolson] (the default) and [Strang] both run
    Crank--Nicolson IMEX on the fused kernel with the growth as a
    [Custom] reaction (the exact-logistic split needs [r] to depend on
    [t] alone); [Ftcs] runs the scalar solver.  The [params] argument
    supplies K and the domain. *)

val predict : solution -> x:float -> t:float -> float
(** Interpolated I(x, t) from the recorded snapshots.
    @raise Invalid_argument on NaN [x] or [t]. *)

val predictor : solution -> x:float -> t:float -> float
(** {!predict} with the snapshot-table bounds hoisted into the
    closure: build once, query many times without allocating.  The
    fitting objective evaluates it at every observed (distance, time)
    cell per solve. *)

val predict_profile : solution -> t:float -> (float * float) array
(** [(x, I(x, t))] at every grid point, at the recorded time nearest
    to [t]. *)

val predict_at_distances : solution -> distances:int array -> t:float -> float array
(** Predictions at integer distances (the only physically meaningful
    points, as the paper notes). *)
