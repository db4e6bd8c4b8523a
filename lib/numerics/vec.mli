(** Dense float vectors.

    Thin, allocation-conscious helpers over [float array].  All
    functions treat their inputs as immutable unless the name says
    otherwise ([*_inplace], [fill], [axpy_inplace]). *)

type t = float array

val init : int -> (int -> float) -> t
val copy : t -> t
val dim : t -> int

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Element-wise product. *)

val scale : float -> t -> t

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y]. *)

val axpy_inplace : float -> t -> t -> unit
(** [axpy_inplace a x y] sets [y <- a*x + y]. *)

val dot : t -> t -> float
val sum : t -> float
val mean : t -> float

val norm2 : t -> float
val norm_inf : t -> float

val dist2 : t -> t -> float
(** Euclidean distance. *)

val max : t -> float
val min : t -> float

val clamp : lo:float -> hi:float -> t -> t
(** Element-wise clamp into [\[lo, hi\]]. *)

val fold_left : ('a -> float -> 'a) -> 'a -> t -> 'a

val approx_equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison with absolute tolerance (default
    [1e-9]); [false] when dimensions differ. *)
