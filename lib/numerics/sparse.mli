(** Sparse matrices (CSR) and iterative solvers.

    Backs the network variant of the DL model, where diffusion acts on
    the social graph's Laplacian (10^4-10^5 nodes) instead of a 1-D
    distance interval: matrix-vector products for explicit stepping and
    conjugate gradient for the implicit (backward-Euler) step. *)

type t
(** Compressed sparse row matrix. *)

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Builds from (row, col, value) triplets; duplicate entries are
    summed, explicit zeros dropped. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** O(log row-nnz) lookup; [0.] for absent entries. *)

val mv : t -> Vec.t -> Vec.t
(** Matrix--vector product. *)

val scale : float -> t -> t
val add_identity : float -> t -> t
(** [add_identity c a] is [c I + a] (square matrices only). *)

val to_dense : t -> Mat.t
(** For tests; do not call on large matrices. *)

val conjugate_gradient :
  ?tol:float -> ?max_iter:int -> ?x0:Vec.t -> t -> Vec.t -> Vec.t
(** Solves [a x = b] for symmetric positive-definite [a].  Defaults:
    [tol = 1e-10] (on the residual norm relative to [||b||]),
    [max_iter = 2 * dim].  @raise Invalid_argument if [a] is not
    square. *)
