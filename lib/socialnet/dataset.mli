(** An immutable social-news dataset: a follower graph plus a corpus of
    voted stories, mirroring the structure of the Digg-2009 crawl the
    paper uses (follower links, per-story vote streams with
    timestamps).

    Graph orientation: an edge [u -> v] in [follows] means "[u] follows
    [v]".  Information travels the other way, so the {e influence}
    graph (edge [v -> u]) is what BFS hop distances are measured on —
    the initiator's direct followers are at hop 1, exactly as in the
    paper. *)

type t

val make :
  follows:Osn_graph.Digraph.t -> influence:Osn_graph.Digraph.t ->
  stories:Types.story array -> t
(** [influence] is [Digraph.reverse follows], which {!Digg.build} and
    {!Twitter.build} already hold for their cascades; it is checked
    edge for edge against [follows], in time linear in the graph's
    size.  Validates every story (see {!Types.check_story}) and that all
    voter ids fit the graph.
    Builds the flat influence adjacency and the per-user vote index
    eagerly.
    @raise Invalid_argument on a failed check. *)

val n_users : t -> int
val n_stories : t -> int

val follows : t -> Osn_graph.Digraph.t
val influence : t -> Osn_graph.Digraph.t
(** Reverse of [follows]: edges point from followee to follower. *)

val influence_adjacency : t -> Osn_graph.Traversal.adjacency
(** {!influence}, flat, for {!Osn_graph.Traversal.bfs_distances}. *)

val story : t -> int -> Types.story
(** [story t i] for [i] in [0 .. n_stories-1]. *)

val stories : t -> Types.story array

val stories_voted_by : t -> int -> int array
(** Ascending story ids the user voted on — the set [C_a] of the
    paper's shared-interest metric (Eq. 1) — as a fresh array. *)

val vote_index : t -> int array * int array
(** [(offsets, ids)]: {!stories_voted_by} of every user in two flat
    arrays, user [u]'s being [ids.(offsets.(u))] to
    [ids.(offsets.(u + 1) - 1)].  The dataset's own arrays, not copies:
    read them, do not write them. *)

val total_votes : t -> int

val save_tsv : t -> string -> unit
(** Serialise to a plain-text format (see the implementation header
    for the grammar). *)

val load_tsv : string -> t
(** Inverse of [save_tsv].  @raise Failure on malformed input. *)

val pp : Format.formatter -> t -> unit
