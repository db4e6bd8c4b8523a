(** The graph Laplacian as a sparse matrix.

    The network variant of the DL model replaces the 1-D operator
    [d2/dx2] with the (negated) combinatorial Laplacian [L = D - A] of
    the undirected social graph, so diffusion acts along actual social
    ties. *)

val undirected_laplacian : Digraph.t -> Numerics.Sparse.t
(** Combinatorial Laplacian [D - A] of the underlying undirected simple
    graph (symmetric positive semi-definite; row sums are zero). *)
