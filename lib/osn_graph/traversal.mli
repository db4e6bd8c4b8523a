(** Graph traversal: BFS hop distances.

    [bfs_distances] is what defines the paper's "friendship hops"
    distance metric: the shortest-path hop count from a story's
    initiator to every other user. *)

type adjacency
(** A graph's out-edges in two flat arrays, per-node offsets into one
    array of targets: built once, walked without the per-node vectors
    of {!Digraph.t}. *)

val adjacency : Digraph.t -> adjacency
(** The out-edges of the graph as it is now; later edges are not
    seen. *)

val bfs_distances : adjacency -> int -> int array
(** [bfs_distances g src] is the array of hop distances from [src]
    following out-edges; unreachable nodes get [-1].
    @raise Invalid_argument if [src] is not a node. *)
