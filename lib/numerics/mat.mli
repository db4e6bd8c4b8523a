(** Dense row-major matrices and direct linear solvers.

    Sized for the library's needs (spline systems, Crank--Nicolson
    steps, least squares on small designs): plain [O(n^3)] LU with
    partial pivoting, no blocking. *)

type t

val create : int -> int -> float -> t
(** [create rows cols x] is a [rows x cols] matrix filled with [x]. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_arrays : float array array -> t

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t
val transpose : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product.  Requires inner dimensions to agree. *)

val mv : t -> Vec.t -> Vec.t
(** Matrix--vector product. *)

type lu
(** Factorisation [P A = L U] with partial pivoting. *)

exception Singular
(** Raised by factorisation/solve when a pivot is (numerically) zero. *)

val lu_decompose : t -> lu
val lu_solve : lu -> Vec.t -> Vec.t

val solve : t -> Vec.t -> Vec.t
(** [solve a b] solves [a x = b].  @raise Singular if [a] is singular. *)

val inverse : t -> t
val determinant : t -> float

val solve_least_squares : t -> Vec.t -> Vec.t
(** [solve_least_squares a b] minimises [||a x - b||_2] via the normal
    equations — fine for the small, well-conditioned designs used
    here.  @raise Singular if [a^T a] is singular. *)

val approx_equal : ?tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
