(** Networked SI epidemic model over distance groups — the related-work
    comparator.

    The paper positions the DL model against epidemic-style models of
    diffusion (SIS in Saito et al., SI-like cascade models).  This
    module implements the natural member of that family on the same
    observation layout the DL model uses: each distance group is a
    metapopulation compartment, and the infected fraction follows

    {v dI_x/dt = (beta_local I_x + beta_cross sum_{y<>x} w(x,y) I_y) (1 - I_x) v}

    with distance-decaying mixing [w(x, y) = mixing_decay^|x-y|].
    Unlike DL it saturates at 100 % (no carrying capacity) and couples
    groups through mass action rather than a diffusion flux.

    Densities are in percent, like {!Socialnet.Density}. *)

type params = {
  beta_local : float;   (** within-group transmission rate, 1/h *)
  beta_cross : float;   (** cross-group transmission scale, 1/h *)
  mixing_decay : float; (** per-hop attenuation of cross-group mixing, in (0, 1] *)
}

val validate : params -> unit
(** @raise Invalid_argument on negative rates or decay outside (0, 1]. *)

val simulate :
  params -> i0:float array -> times:float array -> float array array
(** [simulate p ~i0 ~times] integrates from t = 1 with initial percent
    densities [i0] (one per group) and returns [result.(ix).(it)].
    Times must be increasing and >= 1. *)

type fit_result = {
  params : params;
  training_error : float;  (** mean relative error over the fit cells *)
  evaluations : int;  (** objective evaluations (ODE solves) spent *)
}

val fit :
  ?fit_times:float array -> Numerics.Rng.t -> Socialnet.Density.t -> fit_result
(** Calibrates the three rates against an observation (t = 1 snapshot
    required, default fit window [2; 3; 4]) with the polishing loop
    {!Fit.fit} uses ({!Fit.multi_start} over 6 {!Fit.box_starts},
    tolerance [1e-8], at most 400 iterations each), minimising the mean
    relative error. *)

val predictor :
  params -> obs:Socialnet.Density.t -> Baselines.predictor
(** Prediction function on the observation's distance labels (solves
    once up to the largest requested time, caching snapshots hourly and
    interpolating). *)
