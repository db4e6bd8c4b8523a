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
    cell loops).  [integral a b] is [∫_a^b r], the x-independent
    quantity the exact Strang flows of both shapes need; the models
    pass [r]'s closed form.  It too must be pure, and it is trusted:
    neither solver checks it against [r]. *)
type reaction =
  | Logistic of {
      r : float -> float;
      integral : float -> float -> float;
      k : float;
    }  (** [f = r(t) u (1 - u/K)] — the paper's Eq. 4. *)
  | Linear of { r : float -> float; integral : float -> float -> float }
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

val check_schedule : string -> dt:float -> t0:float -> float array -> unit
(** [check_schedule fn ~dt ~t0 times] validates the schedule a time
    loop marches: [dt > 0] and finite times, each no earlier than [t0]
    or the time before it (to a 1e-12 tolerance).  The solvers here,
    {!Pde2d.solve} and [Dl.Network_model.solve] run it before stepping;
    without it a NaN time records the unstepped state and an infinite
    one never returns.
    @raise Invalid_argument naming [fn] otherwise. *)

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
    @raise Invalid_argument if [nx < 3] or not [xl < xr], if [dt] is
    not [> 0], a time is NaN or infinite or earlier than the one before
    (or [t0]), or an IMEX theta lies outside [\[0.5, 1\]], before any
    step is taken. *)

val logistic_reaction_step :
  integral:(float -> float -> float) -> k:float -> reaction_step
(** Exact flow of the logistic reaction [u' = r(t) u (1 - u/K)]: the
    closed form with [integral t (t +. dt)] as [∫r] over the sub-step
    (pass a [Logistic] reaction's [integral] to reproduce the kernel).
    Intended for [Strang]. *)

val linear_reaction_step : integral:(float -> float -> float) -> reaction_step
(** Exact flow of the {e linear} reaction [u' = r(t) u] (the authors'
    follow-up linear diffusive model, arXiv:1310.0505):
    [u e^{integral t (t +. dt)}].  Intended for [Strang]. *)

(** {2 Fused panel solves}

    A panel steps S problems sharing (domain, grid, [t0], [dt],
    scheme) through the time loop in lockstep.  Per-story state and
    operators live in flat [float array]s held by a reusable
    {!panel_workspace} (cell [i] of story [s] at [i * S + s]), and each
    step makes two passes over a story's cells: an ascending pass doing
    the first half-reaction (IMEX: the RK2 reaction), the explicit
    Crank--Nicolson product and the forward Thomas sweep, and a
    descending pass doing back-substitution and the second
    half-reaction.  Strang sweeps the stories one after another; IMEX
    sweeps all of them at once, stories innermost.  The x-independent
    per-step scalars (r(t), the reaction's [integral], their
    exponentials) are hoisted out of the cell loops, and
    [Logistic]/[Linear] reactions run unboxed.  Story [s] of the result
    is {e bit-identical} to {!solve} on that story alone (enforced by
    test_pde_perf): fusing the sweeps never changes any story's
    floating-point operations or their order.  It validates the grid,
    [dt] and [times] as {!solve} does. *)

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
          logistic flow, [Linear] -> [u e^{∫r}], both with the
          reaction's [integral]).  [Custom] reactions
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
    An empty panel returns [[||]].
    @raise Invalid_argument as {!solve} does, checked before any buffer
    is touched ([pp_nx < 3], not [pp_xl < pp_xr], [dt], [times], an
    IMEX theta), or for a [Custom] reaction under [Panel_strang]. *)

val solve_story :
  ?scheme:panel_scheme -> ?dt:float -> ?from:float * float array ->
  panel_problem -> times:float array -> solution
(** [solve_story pp ~times] is [(solve_panel pp ~times).(0)] for a
    one-story panel on private buffers, counted as a plain solve
    ([pde.solves], [pde.steps], [pde.solve_ns], [pde.step_ns], like
    {!solve}) rather than in the panel series.

    [~from:(t0, u)] resumes instead: the march starts at time [t0]
    from the grid state [u] (one value per node, copied), not at
    [pp_t0] from the initial profile, and the first snapshot is
    [(t0, u)].  Reaching a snapshot time sets the clock to exactly
    that time, so a march continues from a recorded snapshot alone:
    resuming from the snapshot a solve of [pp] recorded at [t0], with
    the same scheme and [dt], records the same bits at every later
    time as that solve would with [t0] among its times.
    @raise Invalid_argument unless [pp] holds exactly one story, if
    [t0] is not finite or [u] does not hold [pp_nx] values, or as
    {!solve_panel} does. *)

val eval : solution -> x:float -> t:float -> float
(** Bilinear interpolation in the snapshot table (clamped at the
    borders).  Between two snapshots recorded at the same time the
    earlier one counts.
    @raise Invalid_argument if [x] or [t] is NaN (a NaN would silently
    clamp to garbage). *)

(** Where {!eval} reads one point on every solution of one grid and one
    list of snapshot times. *)
type stencil = {
  j : int;  (** the snapshot at or before the point's time *)
  i : int;  (** the node at or before the point's position *)
  j1 : int;  (** the next snapshot, or [j] at the last *)
  i1 : int;  (** the next node, or [i] at the last *)
  wx : float;  (** the position's weight on node [i1] *)
  w00 : float;  (** [(1 - wx)(1 - wt)], weighing [values.(j).(i)] *)
  w01 : float;  (** [wx (1 - wt)], weighing [values.(j).(i1)] *)
  w10 : float;  (** [(1 - wx) wt], weighing [values.(j1).(i)] *)
  w11 : float;  (** [wx wt], weighing [values.(j1).(i1)] *)
}

val stencil : xs:float array -> ts:float array -> x:float -> t:float -> stencil
(** [stencil ~xs ~ts ~x ~t] locates [(x, t)] as {!eval} does on a
    solution whose grid is [xs] and whose snapshot times are [ts], with
    [wt] the time's weight on snapshot [j1].  On any such solution
    [((w00 *. v00 +. w01 *. v01) +. w10 *. v10) +. w11 *. v11], with
    [v00 = values.(j).(i)], [v01 = values.(j).(i1)],
    [v10 = values.(j1).(i)] and [v11 = values.(j1).(i1)], is
    [eval sol ~x ~t] bit for bit.  For callers that read a fixed set of
    points from many solves.
    @raise Invalid_argument if [xs] or [ts] is empty, or [x] or [t] is
    NaN. *)

val evaluator : solution -> x:float -> t:float -> float
(** Like {!eval} with the table bounds and lengths hoisted out: build
    the closure once, then call it per point.  Intended for prediction
    loops that query one solution many times.  A call is not
    allocation-free: on a 101-node, six-snapshot solution it allocates
    24.4 minor words (OCaml 5.1.1), the boxed [x], [t] and result plus
    a boxed float per probe of the binary searches over the grid and
    the snapshot times; {!eval} allocates 32.4. *)

val snapshot : solution -> t:float -> float array
(** Solution profile at the recorded time nearest to [t]. *)

val mass : solution -> it:int -> float
(** Trapezoid integral of the profile at snapshot index [it]; constant
    in time for pure diffusion with Neumann boundaries (used by
    tests). *)
