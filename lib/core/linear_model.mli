(** The linear diffusive model — the authors' follow-up PDE
    (arXiv:1310.0505, "Modeling Information Diffusion in Online Social
    Networks with Partial Differential Equations"):

    {v dI/dt = d d2I/dx2 + r(t) I v}

    on [\[l, L\]] with Neumann boundaries and [I(x, 1) = phi(x)].
    Dropping the logistic saturation term makes the equation linear:
    the solution separates as [I(x, t) = e^{int_1^t r} w(x, t)] where
    [w] solves the pure heat equation, so early-stage growth is
    exponential and the model has no carrying capacity.  It is the
    natural member of the model zoo between the per-distance growth
    baselines and the full DL equation: diffusion coupling without
    saturation.

    Solving runs the fused {!Numerics.Pde} kernel the DL model runs on
    ({!Numerics.Pde.solve_story}: Strang splitting with the {e exact}
    linear reaction flow, or Crank--Nicolson IMEX), bit-identical to
    the scalar {!Numerics.Pde.solve}. *)

type params = {
  d : float;      (** diffusion rate *)
  r : Growth.t;   (** growth rate r(t) *)
  l : float;      (** lower distance bound *)
  big_l : float;  (** upper distance bound *)
}

val make : d:float -> r:Growth.t -> l:float -> big_l:float -> params
(** @raise Invalid_argument unless [d >= 0] and [l < big_l] (message
    in [Linear_model.make: reason] form). *)

val of_dl : Params.t -> params
(** Forget the carrying capacity of a DL parameter set. *)

val to_dl : ?k:float -> params -> Params.t
(** Embed into a DL parameter record ([k] defaults to 1 — the linear
    model has no carrying capacity, so the value is a placeholder;
    the persistent store uses this embedding to reuse the DL record
    layout). *)

type scheme = Crank_nicolson | Strang

type solution = {
  params : params;
  pde : Numerics.Pde.solution;
}

val solve :
  ?scheme:scheme -> ?nx:int -> ?dt:float -> ?from:float * float array ->
  params -> phi:Initial.t -> times:float array -> solution
(** [solve params ~phi ~times] integrates from t = 1 and records a
    snapshot at each requested time (all must be [>= 1]).  Defaults:
    [Strang] with the exact linear reaction flow [u e^{∫r}] (the
    kernel's [Panel_strang] on a [Linear] reaction), [nx = 101],
    [dt = 0.01] hours.  [~from:(t0, u)] resumes from a state recorded
    at [t0], as {!Model.solve} does.
    @raise Invalid_argument on [nx < 3], a time below 1, a NaN or
    infinite time, decreasing times or a time before [t0]. *)

val predict : solution -> x:float -> t:float -> float
(** Interpolated I(x, t) from the recorded snapshots.
    @raise Invalid_argument on NaN [x] or [t]. *)

val predictor : solution -> x:float -> t:float -> float
(** {!predict} with the snapshot-table bounds hoisted into the
    closure (see {!Model.predictor}). *)

type fit_config = {
  fit_times : float array;   (** calibration hours (default [2; 3; 4]) *)
  d_bounds : float * float;  (** default (1e-4, 0.6), as for DL *)
  a_bounds : float * float;  (** default (0., 3.) *)
  b_bounds : float * float;  (** default (0.05, 3.) *)
  c_bounds : float * float;  (** default (0., 1.) *)
  starts : int;              (** Nelder--Mead restarts (default 4) *)
  solver_nx : int;           (** fitting grid (default 41) *)
  solver_dt : float;         (** fitting time step (default 0.05) *)
}

val default_fit_config : fit_config

type fit_result = {
  params : params;
  training_error : float;
      (** mean relative error over the fitting cells *)
  evaluations : int;  (** PDE solves spent *)
}

val fit :
  ?config:fit_config -> ?pool:Parallel.Pool.t ->
  Numerics.Rng.t -> Socialnet.Density.t -> fit_result
(** Calibrate (d, a, b, c) with [r(t) = a e^{-b(t-1)} + c] against the
    densities observed at the configured fitting hours with the
    polishing loop {!Fit.fit} uses ({!Fit.multi_start}), on the same
    objective (the mean relative error) without the carrying-capacity
    dimension.  Its starts are {!Fit.box_starts}: the box midpoint and
    [starts - 1] uniform draws (default 4 in all).
    [pool] (default sequential) distributes the restarts; results are
    bit-identical for any pool size.
    @raise Invalid_argument if [obs] lacks a t = 1 snapshot (from
    {!Fit.phi_of_obs}, which builds phi) or has fewer than two
    distances ([Linear_model.fit: reason] form). *)
