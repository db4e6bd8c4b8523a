(** Numerical integration.

    Used for the travelling front's position (the integral of its
    speed), for mass-conservation checks of the pure diffusion
    operator, and in tests. *)

val trapezoid : (float -> float) -> a:float -> b:float -> n:int -> float
(** Composite trapezoid rule with [n >= 1] sub-intervals. *)

val simpson : (float -> float) -> a:float -> b:float -> n:int -> float
(** Composite Simpson rule; [n] is rounded up to an even count. *)

val trapezoid_sampled : xs:float array -> ys:float array -> float
(** Trapezoid rule over an already-sampled (possibly non-uniform)
    grid. *)

val cumulative_trapezoid : xs:float array -> ys:float array -> float array
(** [cumulative_trapezoid ~xs ~ys] is the running integral; element 0
    is [0.]. *)

val adaptive_simpson :
  ?tol:float -> ?max_depth:int -> (float -> float) -> a:float -> b:float -> float
(** Recursive adaptive Simpson integration (default [tol = 1e-10],
    [max_depth = 50]). *)
