(** Node centrality measures.

    Used to study which initiators produce large cascades (the
    influence question raised by the paper's related work, Kempe et
    al.): follower counts and PageRank give two views of an
    initiator's network position. *)

val in_degree_ranking : Digraph.t -> int array
(** Node ids sorted by in-degree, descending (in a follower graph
    where [u -> v] means "u follows v", in-degree = follower count). *)

val pagerank :
  ?damping:float -> ?iterations:int -> ?tol:float -> Digraph.t -> float array
(** Power-iteration PageRank over {e reversed} influence (the standard
    convention: a node is important when important nodes link to it;
    here, when important users follow it).  Dangling mass is
    redistributed uniformly.  Scores sum to 1.
    Defaults: [damping = 0.85], [iterations = 100], [tol = 1e-10]. *)
