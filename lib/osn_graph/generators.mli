(** Graph generators: one random, four deterministic.

    [barabasi_albert] (heavy-tailed in-degree, as measured follower
    graphs are, with a reciprocity pass) builds the Twitter-like
    corpus's graph in [Socialnet.Twitter]; [Socialnet.Digg] grows its
    own preferential-attachment graph with topic homophily.  The
    deterministic shapes ([star], [ring], [line], [complete]) build
    small graphs whose answers are known by hand, for tests. *)

val barabasi_albert :
  Numerics.Rng.t -> n:int -> m:int -> ?reciprocity:float -> unit -> Digraph.t
(** Preferential attachment: nodes arrive one at a time and follow [m]
    existing nodes chosen proportionally to in-degree + 1 (the new
    node's edges point at the chosen targets, "new user follows
    popular users").  With probability [reciprocity] (default 0.3,
    roughly the reciprocity reported for Digg) the followed user
    follows back.  Requires [n > m >= 1]. *)

val star : int -> Digraph.t
(** Node 0 points at every other node. *)

val ring : int -> Digraph.t
(** Directed cycle 0 -> 1 -> ... -> n-1 -> 0. *)

val line : int -> Digraph.t
(** Directed path 0 -> 1 -> ... -> n-1. *)

val complete : int -> Digraph.t
(** All ordered pairs. *)
