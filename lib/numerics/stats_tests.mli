(** Bootstrap resampling.

    Puts percentile-bootstrap confidence intervals on the
    batch-evaluation accuracy numbers. *)

val bootstrap_ci :
  ?confidence:float -> ?resamples:int ->
  Rng.t -> float array -> (float array -> float) -> float * float
(** [(lo, hi)] percentile-bootstrap confidence interval for an
    arbitrary statistic of the sample (default 95 %, 1000 resamples). *)

val bootstrap_mean_ci :
  ?confidence:float -> ?resamples:int -> Rng.t -> float array -> float * float
(** Bootstrap CI for the mean. *)
