(** Piecewise interpolation over sampled grids.

    Lightweight companions to {!Spline} for reading values out of
    discretised solutions (e.g. sampling a PDE solution at integer
    distances). *)

val linear : xs:float array -> ys:float array -> float -> float
(** Piecewise-linear interpolation; clamps outside the range.
    [xs] strictly increasing, at least one point. *)

val bilinear :
  xs:float array -> ts:float array -> values:float array array ->
  float -> float -> float
(** [bilinear ~xs ~ts ~values x t] interpolates a surface sampled as
    [values.(i).(j)] at [(xs.(i), ts.(j))]; clamps outside the
    rectangle.  Used to read [I(x, t)] between grid nodes. *)

val bracket : float array -> float -> int
(** [bracket xs x] is the index [i] such that
    [xs.(i) <= x <= xs.(i+1)], clamped to the valid interval range;
    [0] when there is a single point. *)
