(** Growth-rate functions r(t) for the diffusive logistic model.

    The paper observes (Fig. 4) that density increments shrink as a
    story ages and therefore makes r a decreasing function of time; its
    two published instances are exponential-decay forms (Eq. 7 for the
    friendship-hop experiment, and [1.6 e^{-(t-1)} + 0.1] for shared
    interests). *)

type t =
  | Constant of float
  | Exp_decay of { a : float; b : float; c : float }
      (** [r(t) = a e^{-b (t - 1)} + c]; time is measured from the
          paper's initial observation hour t = 1 *)

val eval : t -> float -> float

val integral : t -> t0:float -> t1:float -> float
(** Exact integral of [r] over [\[t0, t1\]] (closed form in both
    cases), accurate to rounding for every [b], including [b] near 0
    and short intervals.  The models' exact Strang flows use it. *)

val paper_hops : t
(** Eq. 7: [1.4 e^{-1.5 (t-1)} + 0.25] (Fig. 6). *)

val paper_interest : t
(** The shared-interest experiment's rate: [1.6 e^{-(t-1)} + 0.1]. *)

val pp : Format.formatter -> t -> unit
