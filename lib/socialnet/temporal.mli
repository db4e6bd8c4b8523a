(** Temporal analytics of vote streams.

    Quantifies the patterns the paper reads off its Figure 3 ("popular
    stories spread faster", "densities remain stable after 50 hours"):
    vote-rate histograms, time-to-fraction, saturation time, and
    inter-arrival statistics. *)

val votes_per_hour : Types.story -> duration:float -> int array
(** [votes_per_hour s ~duration] is one bucket per whole hour starting
    at submission ([ceil duration] buckets); votes beyond [duration]
    are dropped. *)

val time_to_fraction : Types.story -> fraction:float -> float
(** Earliest vote timestamp by which at least [fraction] (in (0, 1]])
    of the story's total votes were cast. *)

val saturation_time : ?tolerance:float -> Types.story -> float
(** Time after which the remaining vote mass is below [tolerance]
    (default 0.02) of the total — the paper's "no longer new"
    instant. *)

type inter_arrival = {
  mean : float;
  median : float;
  max : float;
}

val inter_arrival_stats : Types.story -> inter_arrival
(** Statistics of the gaps between consecutive votes.
    @raise Invalid_argument for stories with fewer than two votes. *)

val spread_speed_rank :
  Types.story array -> (int * float) array
(** Stories ranked by time-to-half-votes (ascending = fastest first);
    pairs of (story id, time to 50 %). *)
