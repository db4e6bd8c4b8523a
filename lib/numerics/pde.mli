(** One-dimensional reaction--diffusion initial-boundary-value problems
    with no-flux (Neumann) boundaries:

    {v
      u_t = (d(x) u_x)_x + f(x, t, u),   xl <= x <= xr,  t >= t0
      u_x(xl, t) = u_x(xr, t) = 0
      u(x, t0)  = initial x
    v}

    This is the solver behind the paper's diffusive logistic model
    (Equation 4), where [f(x,t,u) = r(t) u (1 - u/K)] and [d] is
    constant.  The formulation is kept slightly more general (variable
    [d(x)], arbitrary [f]) to support the paper's stated future work.

    Three schemes are provided:
    - {b FTCS}: explicit forward-time centred-space; sub-steps
      automatically to respect the CFL limit [dt <= dx^2 / (2 max d)].
    - {b IMEX theta}: diffusion handled implicitly by a theta-scheme
      (Crank--Nicolson at [theta = 0.5]) via a tridiagonal solve;
      reaction explicit.
    - {b Strang}: symmetric operator splitting — half reaction step,
      full Crank--Nicolson diffusion step, half reaction step — where
      the reaction sub-step is user-supplied and may be exact (see
      [logistic_reaction_step]).

    There are two solvers.  {!solve_panel} (and {!solve_story}, its
    one-story form) is the fused kernel every model runs for IMEX and
    Strang.  {!solve} is the scalar stepper: FTCS runs only there, and
    its IMEX and Strang arms are the reference the kernel is tested
    against bit for bit. *)

(** The reaction term [f(x, t, u)], specialised by shape.  [Logistic]
    and [Linear] name the paper's two models so the solver's hot loops
    can dispatch once and run unboxed float arithmetic per cell;
    [Custom] keeps the fully general closure (with its per-call float
    boxing).  Both solvers evaluate the named shapes as exactly
    [r t *. u *. (1. -. (u /. k))] and [r t *. u] — building a
    [Custom] closure with the same body produces the same bits, just
    slower.  [r] must be a pure function of [t] (it is hoisted out of
    cell loops). *)
type reaction =
  | Logistic of { r : float -> float; k : float }
      (** [f = r(t) u (1 - u/K)] — the paper's Eq. 4. *)
  | Linear of { r : float -> float }
      (** [f = r(t) u] — the authors' follow-up linear model. *)
  | Custom of (x:float -> t:float -> u:float -> float)

val reaction_eval : reaction -> x:float -> t:float -> u:float -> float
(** The single evaluation semantics shared by both solvers. *)

type problem = {
  xl : float;
  xr : float;
  nx : int;  (** number of grid points, at least 3 *)
  diffusion : float -> float;  (** [d(x)], non-negative *)
  reaction : reaction;
  initial : float -> float;
  t0 : float;
}

type reaction_step = x:float -> t:float -> dt:float -> u:float -> float
(** Exact or approximate flow of [du/dt = f(x, t, u)] over [\[t, t+dt\]]. *)

type scheme =
  | Ftcs
  | Imex of float  (** theta in [\[0.5, 1\]]; 0.5 = Crank--Nicolson *)
  | Strang of reaction_step

type solution = {
  xs : float array;  (** grid, length [nx] *)
  ts : float array;  (** snapshot times, [t0] first *)
  values : float array array;  (** [values.(it).(ix)] *)
}

val grid : problem -> float array

val cfl_limit : problem -> float
(** Largest stable explicit time step for the diffusion term. *)

val solve :
  ?scheme:scheme -> ?dt:float -> problem -> times:float array -> solution
(** [solve problem ~times] marches from [t0] and records a snapshot at
    [t0] and at each requested (finite, non-decreasing, [>= t0]) time.
    Default scheme [Imex 0.5], default [dt = 1e-3] time units (FTCS
    additionally sub-steps to stay within the CFL limit).

    The scalar stepper: every step allocates its state (FTCS: one
    array) and, for IMEX and Strang, builds and solves its operators
    afresh.  The models run IMEX and Strang on the fused kernel
    ({!solve_panel}, {!solve_story}) instead; this stepper serves FTCS
    and is the kernel's reference.
    @raise Invalid_argument if [dt] is not [> 0], a time is NaN or
    infinite or earlier than the one before (or [t0]), or an IMEX
    theta lies outside [\[0.5, 1\]]. *)

val logistic_reaction_step : r:(float -> float) -> k:float -> reaction_step
(** Exact flow of the logistic reaction [u' = r(t) u (1 - u/K)], using
    the closed form with the integral of [r] evaluated by Simpson's
    rule on the sub-step.  Intended for [Strang].  The returned closure
    memoizes the (x-independent) integral per [(t, dt)], so it is
    stateful: build one per solve and do not share it across domains. *)

val linear_reaction_step : r:(float -> float) -> reaction_step
(** Exact flow of the {e linear} reaction [u' = r(t) u] (the authors'
    follow-up linear diffusive model, arXiv:1310.0505):
    [u e^{int_t^{t+dt} r}], with the integral evaluated by Simpson's
    rule on the sub-step.  Intended for [Strang].  Like
    {!logistic_reaction_step} the closure memoizes the x-independent
    integral per [(t, dt)], so it is stateful: build one per solve and
    do not share it across domains. *)

(** {2 Fused panel solves}

    A panel steps S problems sharing (domain, grid, [t0], [dt],
    scheme) through the time loop in lockstep.  Per-story state and
    operators live in flat [float array]s held by a reusable
    {!panel_workspace} (cell [i] of story [s] at [i * S + s]), and each
    step is two sweeps over the cells, stories innermost: an ascending
    pass doing the first half-reaction (IMEX: the RK2 reaction), the
    explicit Crank--Nicolson product and the forward Thomas sweep, and
    a descending pass doing back-substitution and the second
    half-reaction.  The x-independent per-step scalars (r(t), Simpson
    [∫r], their exponentials) are hoisted out of the cell loops, and
    [Logistic]/[Linear] reactions run unboxed.  Story [s] of the result
    is {e bit-identical} to {!solve} on that story alone (enforced by
    test_pde_perf and the CI bench gate): fusing the sweeps never
    changes any story's floating-point operations or their order.  It
    validates [dt] and [times] as {!solve} does. *)

type panel_story = {
  ps_diffusion : float -> float;
  ps_reaction : reaction;
  ps_initial : float -> float;
}

type panel_problem = {
  pp_xl : float;
  pp_xr : float;
  pp_nx : int;
  pp_t0 : float;
  pp_stories : panel_story array;
}

type panel_scheme =
  | Panel_imex of float  (** theta in [\[0.5, 1\]]; 0.5 = Crank--Nicolson *)
  | Panel_strang
      (** Strang splitting with the {e exact} reaction flow derived
          from each story's reaction shape ([Logistic] -> closed-form
          logistic flow, [Linear] -> [u e^{∫r}]).  [Custom] reactions
          are rejected ([Invalid_argument]): no flow is derivable from
          a closure — use [Panel_imex] or the scalar {!solve}. *)

(** FTCS is deliberately absent: its CFL-bounded macro step depends on
    each story's diffusion, so stories cannot march in lockstep. *)

type panel_workspace
(** Reusable panel buffer block (state, operators, factorization),
    reallocated only when the [(nx, stories)] shape changes.  Keep one
    per fit restart / pool worker: a workspace must not be used from
    two domains concurrently.  Buffer reuse is counted in the
    [pde.panel_reuses] / [pde.panel_rebuilds] metrics (visible on
    [/metrics]). *)

val panel_workspace : unit -> panel_workspace

val panel_workspace_stats : panel_workspace -> int * int
(** [(reuses, rebuilds)] over the workspace's lifetime. *)

val solve_panel :
  ?scheme:panel_scheme ->
  ?dt:float ->
  ?workspace:panel_workspace ->
  panel_problem ->
  times:float array ->
  solution array
(** [solve_panel pp ~times] solves every story of the panel over the
    shared snapshot [times] (semantics per story exactly as {!solve};
    defaults [Panel_imex 0.5], [dt = 1e-3]).  Without [?workspace] the
    solve allocates a fresh one.  Counted in the [pde.panel_*] metrics.
    An empty panel returns [[||]]. *)

val solve_story :
  ?scheme:panel_scheme -> ?dt:float -> panel_problem -> times:float array ->
  solution
(** [solve_story pp ~times] is [(solve_panel pp ~times).(0)] for a
    one-story panel on private buffers, counted as a plain solve
    ([pde.solves], [pde.steps], [pde.solve_ns], [pde.step_ns], like
    {!solve}) rather than in the panel series.
    @raise Invalid_argument unless [pp] holds exactly one story. *)

val eval : solution -> x:float -> t:float -> float
(** Bilinear interpolation in the snapshot table (clamped at the
    borders).
    @raise Invalid_argument if [x] or [t] is NaN (a NaN would silently
    clamp to garbage). *)

val evaluator : solution -> x:float -> t:float -> float
(** Like {!eval} with the table bounds and lengths hoisted out: build
    the closure once, then each call is allocation-free.  Intended for
    prediction loops that query one solution many times. *)

val snapshot : solution -> t:float -> float array
(** Solution profile at the recorded time nearest to [t]. *)

val mass : solution -> it:int -> float
(** Trapezoid integral of the profile at snapshot index [it]; constant
    in time for pure diffusion with Neumann boundaries (used by
    tests). *)
