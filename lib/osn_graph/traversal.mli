(** Graph traversal: BFS hop distances.

    [bfs_distances] is what defines the paper's "friendship hops"
    distance metric: the shortest-path hop count from a story's
    initiator to every other user. *)

val bfs_distances : Digraph.t -> int -> int array
(** [bfs_distances g src] is the array of hop distances from [src]
    following out-edges; unreachable nodes get [-1]. *)
