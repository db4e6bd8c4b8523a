(** Compact directed graphs over integer node ids [0 .. n-1].

    The representation targets the scale of the synthetic Digg corpus
    (10^5 nodes, 10^6 edges): append-friendly adjacency vectors and an
    in-adjacency index maintained incrementally, so both follower and
    followee traversals are O(degree). *)

type t

val create : int -> t
(** [create n] is an edgeless graph with nodes [0 .. n-1]. *)

val n_nodes : t -> int
val n_edges : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds the directed edge [u -> v].  Duplicate edges
    and self-loops are ignored (the social graph is simple). *)

val has_edge : t -> int -> int -> bool

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph with [n] nodes and the given
    directed edges. *)

val out_neighbors : t -> int -> int array
(** Successors of a node (fresh array). *)

val iter_out : t -> int -> (int -> unit) -> unit
(** Iterate successors without allocating. *)

val iter_in : t -> int -> (int -> unit) -> unit

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate all edges [(u, v)] in unspecified order. *)

val edges : t -> (int * int) list

val reverse : t -> t
(** Graph with every edge flipped. *)
