(** The paper's two distance metrics (Section II.A).

    Both produce, for a given story, an integer distance label per user
    (or [-1] for users excluded from the measurement).  The labels are
    what the density observations ({!Density}) are grouped by. *)

val friendship_hops : Dataset.t -> story:Types.story -> int array
(** BFS hop count from the story's initiator along influence edges
    (followee to follower): direct followers are at hop 1.  Unreachable
    users and the initiator itself get [-1]. *)

val shared_interest : Dataset.t -> exclude:int -> int -> int -> float
(** [shared_interest ds ~exclude a b] is the paper's Eq. 1 distance
    [1 - |Ca ∩ Cb| / |Ca ∪ Cb|] over voted-story sets, with story id
    [exclude] removed from both sides first (so the story under study
    does not correlate with itself; pass [-1] to keep everything).
    Two users with no votes at all are at distance [1.]. *)

val interest_distances : Dataset.t -> story:Types.story -> float array
(** Per user, [shared_interest ds ~exclude:story.id initiator u], bit
    for bit, computed in one pass over the corpus's votes rather than a
    merge per user.  NaN for the initiator and for users with no vote
    other than the story itself (outside the metric's universe). *)

type grouping = Equal_width | Quantile

val interest_groups :
  ?n_groups:int -> ?grouping:grouping -> Dataset.t -> story:Types.story ->
  int array
(** Distance label per user: the shared-interest distance from the
    story's initiator, quantised into [n_groups] (default 5) groups
    labelled [1] (closest) to [n_groups] (farthest), like the paper's
    "five disjoint groups based on their interest ranges".
    [Equal_width] (default) splits the observed distance range evenly;
    [Quantile] balances group populations.  The initiator gets [-1]. *)
