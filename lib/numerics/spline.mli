(** Cubic spline interpolation.

    Classic moment (second-derivative) formulation: the moments solve a
    diagonally dominant tridiagonal system, and each interval is a cubic
    with C2 continuity at the knots.  This mirrors the Matlab
    cubic-spline package the paper relies on for constructing the
    initial density function [phi].

    The paper's construction (Section II.D) needs clamped boundary
    conditions with zero end slopes plus constant ("flat") extension
    outside the data range; [flat_ends] builds exactly that. *)

type boundary =
  | Natural  (** zero second derivative at both ends *)
  | Clamped of float * float
      (** prescribed first derivatives at the left and right ends *)

type extrapolation =
  | Flat     (** constant boundary value outside the knot range *)
  | Linear   (** continue with the boundary slope *)
  | Error    (** raise [Invalid_argument] outside the knot range *)

type t

val make : ?boundary:boundary -> ?extrapolation:extrapolation ->
  xs:float array -> ys:float array -> unit -> t
(** [make ~xs ~ys ()] interpolates the points [(xs.(i), ys.(i))].
    [xs] must be strictly increasing with at least two points.
    Defaults: [Natural], [Flat]. *)

val flat_ends : xs:float array -> ys:float array -> t
(** The paper's initial-density construction: clamped spline with
    [phi'(l) = phi'(L) = 0] and flat extension, so the Neumann
    boundary requirement holds exactly. *)

val eval : t -> float -> float
val deriv : t -> float -> float
(** First derivative.  Outside the knot range the [Flat] mode reports
    [0.] and [Linear] the boundary slope. *)

val second_deriv : t -> float -> float
(** Second derivative (piecewise linear in x; [0.] outside the range
    under [Flat]/[Linear]). *)

val knots : t -> (float * float) array
val domain : t -> float * float
