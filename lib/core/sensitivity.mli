(** One-at-a-time parameter sensitivity of the DL model.

    Complements {!Fit}: rather than finding the best parameters, this
    quantifies how much the prediction quality depends on each of them
    around a reference point — the robustness question a practitioner
    asks before trusting hand-picked constants like the paper's. *)

type objective = Params.t -> float
(** Anything to minimise/maximise over parameters; the pipeline's
    overall accuracy is the usual choice. *)

val accuracy_objective :
  phi:Initial.t -> obs:Socialnet.Density.t -> times:float array -> objective
(** Overall Table-I-style accuracy of the model against [obs] at
    [times] (to be {e maximised}). *)

type axis = D | K | R_a | R_b | R_c

val axis_name : axis -> string

val perturb : Params.t -> axis -> float -> Params.t
(** Multiplies the chosen coefficient by [factor] (axes [R_*] require
    an [Exp_decay] growth rate;
    @raise Invalid_argument otherwise). *)

type row = {
  axis : axis;
  factor : float;
  value : float;          (** objective after perturbation *)
  delta : float;          (** [value - reference] *)
}

val one_at_a_time :
  ?pool:Parallel.Pool.t ->
  ?factors:float array -> objective -> Params.t -> row array
(** Evaluates the objective with each axis scaled by each factor
    (default factors 0.5, 0.8, 1.25, 2.0), holding the others at the
    reference.  [pool] (default sequential) distributes the
    axis-times-factor evaluations over worker domains; the row order
    and values are identical for any pool size. *)

val elasticity : ?eps:float -> objective -> Params.t -> axis -> float
(** Local elasticity [(dF / F) / (dp / p)] by central differences with
    relative step [eps] (default 0.05); [nan] when the reference value
    is 0. *)
