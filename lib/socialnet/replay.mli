(** Replay adapter: turn the cascade simulator into a live traffic
    stream.

    The serving layer's streaming-ingestion path ([POST /observe])
    wants timestamped votes with distance labels; this module packages
    a {!Cascade.simulate_traced} run over a {!Digg} corpus into
    exactly that — time-ordered events plus the observation grid and
    per-distance populations the receiving side needs to build its
    incremental density profile.  The [dlosn replay] CLI driver and
    the live bench both stream from here. *)

type event = {
  voter : int;
  time : float;  (** hours since submission *)
  distance : int;
      (** friendship-hop distance of the voter from the initiator;
          [-1] when unreachable in the influence graph *)
  channel : Cascade.channel;
}

type stream = {
  story : Types.story;  (** the simulated cascade (time-sorted votes) *)
  events : event array;  (** one per vote, time-ascending *)
  assignment : int array;  (** per-user hop labels over the whole graph *)
  max_distance : int;
  times : float array;  (** observation grid, [1 .. horizon] hours *)
  population : int array;
      (** users at each hop distance [1 .. max_distance] — the density
          denominators, as {!Density.observe} counts them *)
}

val simulate :
  ?scale:Digg.scale ->
  ?params:Cascade.params ->
  ?max_distance:int ->
  ?times:float array ->
  seed:int ->
  unit ->
  stream
(** Build a {!Digg} corpus (default {!Digg.small}), re-run a fresh
    cascade from the corpus's s1 initiator on its topic, and label
    every vote with its hop distance.  Deterministic in [seed].
    Defaults: [max_distance = 6], [times = 1..6], and [params] tuned
    for a replay session (immediate promotion, a burst-then-decay
    front page and an 8-hour horizon, so densities move visibly across
    the [1..6] observation grid).
    @raise Invalid_argument when [times] is empty or not ascending. *)

val batch_density : stream -> Density.t
(** The batch observation an offline pipeline would compute from the
    full stream ({!Density.observe} over every vote) — the reference
    the live profile must converge to. *)
