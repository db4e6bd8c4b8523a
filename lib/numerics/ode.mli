(** Fixed-step initial-value ODE solvers (Euler and RK4).

    The right-hand side acts on vectors ([Vec.t]); [scalar_rhs] lifts a
    scalar field.  The closed-form logistic solutions
    ([logistic], [logistic_varying_r]) serve both as oracles for the
    integrators in tests and as the exact reaction sub-step of the
    Strang-split PDE scheme in {!Pde}. *)

type rhs = t:float -> y:Vec.t -> Vec.t
(** Vector field [dy/dt = f(t, y)]. *)

val euler_step : rhs -> t:float -> dt:float -> y:Vec.t -> Vec.t
val rk4_step : rhs -> t:float -> dt:float -> y:Vec.t -> Vec.t

val integrate :
  ?step:[ `Euler | `Rk4 ] -> rhs -> y0:Vec.t -> t0:float ->
  times:float array -> (float * Vec.t) array
(** [integrate rhs ~y0 ~t0 ~times] advances from [t0] through the
    (increasing) [times] with fixed sub-steps ([`Rk4] default, 32
    sub-steps per unit time) and returns the state at each requested
    time. *)

val scalar_rhs : (t:float -> y:float -> float) -> rhs
(** Lift a scalar field to a 1-vector field. *)

val logistic : r:float -> k:float -> n0:float -> float -> float
(** Closed-form logistic [N(t)] with [N(0) = n0]:
    [K / (1 + (K/n0 - 1) e^{-r t})].  [n0 = 0] stays [0]. *)

val logistic_varying_r :
  r_integral:(float -> float) -> k:float -> n0:float -> float -> float
(** Logistic growth with a time-varying rate: the same closed form with
    [r*t] replaced by [r_integral t] = integral of [r] from the initial
    time to [t]. *)
