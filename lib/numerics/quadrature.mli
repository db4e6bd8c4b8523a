(** Fixed-rule numerical integration: composite trapezoid and Simpson.

    Used for the travelling front's position (the integral of its
    speed) and for mass-conservation checks of the pure diffusion
    operator; tests use Simpson as the oracle for closed-form growth
    integrals. *)

val trapezoid : (float -> float) -> a:float -> b:float -> n:int -> float
(** Composite trapezoid rule with [n >= 1] sub-intervals. *)

val simpson : (float -> float) -> a:float -> b:float -> n:int -> float
(** Composite Simpson rule; [n] is rounded up to an even count. *)

val trapezoid_sampled : xs:float array -> ys:float array -> float
(** Trapezoid rule over an already-sampled (possibly non-uniform)
    grid. *)
