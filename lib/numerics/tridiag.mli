(** Tridiagonal linear systems (Thomas algorithm).

    Used by the cubic-spline moment system and the Crank--Nicolson
    diffusion step, both of which are diagonally dominant, so the
    pivot-free Thomas algorithm is stable. *)

type t = {
  sub : float array;  (** sub-diagonal, length [n-1]; [sub.(i)] is row [i+1]. *)
  diag : float array; (** main diagonal, length [n]. *)
  sup : float array;  (** super-diagonal, length [n-1]; [sup.(i)] is row [i]. *)
}

val make : sub:float array -> diag:float array -> sup:float array -> t
(** Validates the three lengths. *)

val dim : t -> int

val solve : t -> Vec.t -> Vec.t
(** [solve sys b] solves the tridiagonal system in [O(n)].
    @raise Mat.Singular on a (numerically) zero pivot. *)

type factored
(** A precomputed Thomas factorization (the c'-sweep of {!solve}):
    amortises the forward elimination over many right-hand sides with
    the same matrix, as in a time-stepping loop.  Shares the matrix's
    sub-diagonal — do not mutate the matrix while the factorization is
    in use. *)

val factorize : t -> factored
(** Runs the pivot sweep once.
    @raise Mat.Singular on a (numerically) zero pivot. *)

val factored_dim : factored -> int

val solve_factored : factored -> src:Vec.t -> dst:Vec.t -> unit
(** [solve_factored f ~src ~dst] solves into [dst] without allocating,
    using only the d'-sweep and back-substitution.

    {b Aliasing contract:} [src == dst] is explicitly {e allowed} (full
    in-place solve) and produces the same bits as the out-of-place
    call.  The d'-sweep reads [src.(i)] before writing [dst.(i)], and
    once cell [i] is written the sweep only ever reads cells [< i],
    which already hold d' under either aliasing; the back-substitution
    then runs entirely in [dst].  {e Partial} overlap is impossible for
    [float array]s (two arrays either alias fully or not at all), so
    the two cases above are exhaustive.  This contract is locked in by
    the "solve_factored in place" test in test_pde_perf.

    The result is bit-identical to [solve t src] for the matrix [f]
    was built from: the remaining floating-point operations are the
    same, in the same order. *)

val mv : t -> Vec.t -> Vec.t
(** Product of the tridiagonal matrix with a vector, in [O(n)]. *)

val to_dense : t -> Mat.t
(** Expansion to a dense matrix; intended for tests. *)
