(** Deterministic pseudo-random number generation.

    A small, fast, splittable PRNG based on SplitMix64.  Every stochastic
    component of the library (graph generators, cascade simulator,
    Nelder--Mead restarts, property tests) threads an explicit [Rng.t]
    so that whole experiments are reproducible from a single seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds
    yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator whose stream is (for practical
    purposes) independent of the remainder of [t]'s stream; [t] is
    advanced.  Use it to give sub-components their own streams. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform t a b] is uniform on [\[a, b)].  Requires [a <= b]. *)

val int : t -> int -> int
(** [int t n] is uniform on [\[0, n)].  Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val normal : t -> ?mu:float -> ?sigma:float -> unit -> float
(** Gaussian deviate via Box--Muller (defaults: [mu = 0.], [sigma = 1.]). *)

val exponential : t -> float -> float
(** [exponential t lambda] with rate [lambda > 0] (mean [1/lambda]). *)

val poisson : t -> float -> int
(** [poisson t lambda] for [lambda > 0].  Uses Knuth's method for small
    means and a normal approximation above 60. *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Pareto deviate: density proportional to [x^-(alpha+1)] on
    [\[x_min, infinity)]. *)

val dirichlet : t -> float array -> float array
(** [dirichlet t alphas] samples a probability vector from a Dirichlet
    distribution via normalised Gamma deviates
    (Marsaglia--Tsang). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher--Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [\[0, n)] (order unspecified).  Requires [0 <= k <= n]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val weighted_index : t -> float array -> int
(** [weighted_index t w] samples index [i] with probability
    [w.(i) / sum w].  Weights must be non-negative with positive sum. *)
