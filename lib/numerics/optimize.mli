(** Derivative-free minimisation: Nelder--Mead.

    Model calibration ([Dl.Fit.multi_start]) restarts it from several
    points and keeps the best run; the per-distance baselines
    ([Dl.Baselines]) call it once.  Nothing here needs gradients, which
    matters because a calibration objective evaluates a PDE solve. *)

type result = {
  x : float array;   (** best point found *)
  f : float;         (** objective value at [x] *)
  iterations : int;
  converged : bool;  (** simplex/tolerance criterion met before the
                         iteration cap *)
  evaluations : int; (** objective evaluations performed *)
  spread : float;    (** final simplex diameter (max distance from the
                         best vertex) *)
}

val nelder_mead :
  ?tol:float -> ?max_iter:int -> ?step:float ->
  ?simplex:float array array ->
  (float array -> float) -> x0:float array -> result
(** Nelder--Mead downhill simplex from [x0] with initial edge [step]
    (default [0.1] of each coordinate's magnitude, min 0.05).
    Convergence when the simplex's objective spread falls under [tol]
    (default [1e-9]).  An explicit [simplex] — [n+1] vertices of
    dimension [n = Array.length x0] — replaces the default
    axis-aligned initial simplex, enabling warm starts from a prior
    run's final simplex; [x0] is then only used for its dimension.
    @raise Invalid_argument when [simplex] has the wrong shape. *)
