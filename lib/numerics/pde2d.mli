(** Two-space-dimensional reaction--diffusion with no-flux boundaries:

    {v
      u_t = dx u_xx + dy u_yy + f(x, y, t, u)   on [xl,xr] x [yl,yr]
      zero normal derivative on the boundary
      u(x, y, t0) = initial x y
    v}

    Time stepping is Strang-split: half reaction step (Heun), one full
    diffusion step by the Peaceman--Rachford ADI scheme (each
    half-sweep solves tridiagonal systems along one axis), half
    reaction step.  The per-axis operators use the same half-volume
    boundary cells as {!Pde}, so the tensor trapezoid mass of a pure
    diffusion solution is conserved exactly.

    This powers the joint hop x interest variant of the DL model —
    the natural generalisation of the paper's single spatial
    dimension. *)

type problem = {
  xl : float;
  xr : float;
  nx : int;  (** >= 3 *)
  yl : float;
  yr : float;
  ny : int;  (** >= 3 *)
  dx_coef : float;  (** diffusion along x, >= 0 *)
  dy_coef : float;  (** diffusion along y, >= 0 *)
  reaction : x:float -> y:float -> t:float -> u:float -> float;
  initial : float -> float -> float;
  t0 : float;
}

type solution = {
  xs : float array;
  ys : float array;
  ts : float array;
  values : float array array array;  (** [values.(it).(ix).(iy)] *)
}

val solve : ?dt:float -> problem -> times:float array -> solution
(** Default [dt = 0.02].  Snapshot at [t0] and each requested
    (increasing) time.
    @raise Invalid_argument for a schedule {!Pde.check_schedule}
    rejects. *)

val value_at : solution -> x:float -> y:float -> t:float -> float
(** Bilinear in space at the recorded time nearest to [t]; clamped at
    the borders. *)

val mass : solution -> it:int -> float
(** Tensor trapezoid integral of the snapshot (exactly conserved for
    pure diffusion; used by tests). *)
