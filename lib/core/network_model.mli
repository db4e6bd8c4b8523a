(** Node-level DL model on the social graph — the "don't collapse to
    1-D" ablation.

    The paper's key abstraction flattens the network onto a 1-D
    distance axis.  This module solves the same reaction--diffusion
    dynamics {e directly on the graph}:

    {v dI_v/dt = -d (L I)_v + r(t) I_v (1 - I_v / K) v}

    where [L] is the (combinatorial) graph Laplacian, [I_v] is the
    probability (in percent) that user [v] is influenced, seeded with
    the users actually influenced in the first hour.  Aggregating the
    node field by distance group makes it directly comparable with the
    1-D model and the observations.

    Time stepping is IMEX backward Euler: the diffusion step solves the
    SPD system [(I + dt d L) u' = u + dt f(u)] by conjugate
    gradient. *)

type params = {
  d : float;       (** diffusion rate along social ties *)
  k : float;       (** per-node carrying capacity, percent (usually 100) *)
  r : Growth.t;
}

val indicator_initial :
  Socialnet.Types.story -> n_users:int -> at:float -> Numerics.Vec.t
(** 100 for users who voted by time [at], 0 otherwise. *)

val solve :
  ?dt:float ->
  laplacian:Numerics.Sparse.t ->
  params -> i0:Numerics.Vec.t -> times:float array ->
  (float * Numerics.Vec.t) array
(** Integrates from t = 1 (default [dt = 0.1] h) and returns the node
    field at each requested time (increasing, >= 1).
    @raise Invalid_argument for a schedule
    {!Numerics.Pde.check_schedule} rejects from [t0 = 1]. *)

val group_average :
  assignment:int array -> max_distance:int -> Numerics.Vec.t -> float array
(** Mean node value per distance group 1..max_distance (0 for empty
    groups) — the quantity comparable to {!Socialnet.Density}. *)

type fit_result = {
  params : params;
  training_error : float;
}

val fit_grid :
  ?dt:float ->
  laplacian:Numerics.Sparse.t ->
  assignment:int array ->
  obs:Socialnet.Density.t ->
  i0:Numerics.Vec.t ->
  d_grid:float array -> r_grid:float array -> k:float -> unit ->
  fit_result
(** Coarse grid calibration of (d, constant r) against the observed
    group densities over the observation's recorded times after t = 1;
    each candidate costs a full network solve, so keep the grids
    small. *)
