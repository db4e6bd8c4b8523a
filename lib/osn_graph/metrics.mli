(** Structural graph metrics.

    Used to validate that the synthetic Digg follower graph has the
    qualitative properties the paper's observations rely on: a
    heavy-tailed degree distribution, reciprocal follows and high
    clustering (the "social triangles" behind the growth process). *)

val degree_histogram : [ `In | `Out ] -> Digraph.t -> (int * int) array
(** [(degree, node-count)] pairs, ascending in degree. *)

val mean_degree : Digraph.t -> float
(** Mean out-degree = edges / nodes. *)

val reciprocity : Digraph.t -> float
(** Fraction of edges (u, v) whose reverse edge also exists; [0.] on an
    edgeless graph. *)

val clustering_coefficient : ?samples:int -> Numerics.Rng.t -> Digraph.t -> float
(** Sampled local clustering of the underlying undirected graph:
    average over up to [samples] (default 2000) random nodes of
    (closed wedges / wedges) at that node; nodes with fewer than two
    neighbours contribute 0. *)

val power_law_exponent : (int * int) array -> float
(** Log-log OLS slope of a degree histogram (zero-degree and
    zero-count bins are skipped); the returned exponent is the
    negated slope, so heavy-tailed graphs report a value around
    2--3. *)
