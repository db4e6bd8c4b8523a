(** Dense row-major matrices and a direct linear solver.

    The dense reference that tests check the tridiagonal (Thomas) and
    sparse conjugate-gradient solvers against, and the home of
    [Singular], which every direct solver raises: plain [O(n^3)] LU
    with partial pivoting, no blocking. *)

type t

val create : int -> int -> float -> t
(** [create rows cols x] is a [rows x cols] matrix filled with [x]. *)

val init : int -> int -> (int -> int -> float) -> t
val of_arrays : float array array -> t

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t

val mv : t -> Vec.t -> Vec.t
(** Matrix--vector product. *)

exception Singular
(** Raised by [solve] when a pivot is (numerically) zero. *)

val solve : t -> Vec.t -> Vec.t
(** [solve a b] solves [a x = b] by LU factorisation with partial
    pivoting.  @raise Singular if [a] is singular. *)

val approx_equal : ?tol:float -> t -> t -> bool
