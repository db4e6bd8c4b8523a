(** Observed densities of influenced users — the paper's I(x, t).

    Given a story, a per-user distance assignment (from {!Distance})
    and a set of observation times, computes the percentage of users at
    each distance who have voted by each time:
    [I(x, t) = 100 * |influenced in U_x by t| / |U_x|]. *)

type t = {
  distances : int array;  (** distance labels, ascending (e.g. 1..5) *)
  times : float array;    (** observation times, hours *)
  density : float array array;
      (** [density.(ix).(it)] in percent, [ix] indexing [distances] *)
  population : int array; (** group sizes |U_x| *)
}

val observe :
  Types.story -> assignment:int array -> max_distance:int ->
  times:float array -> t
(** Users with labels outside [1 .. max_distance] (including the [-1]
    exclusions) are dropped.  Groups with zero population report
    density [0.]. *)

val distance_distribution :
  assignment:int array -> max_distance:int -> (int * float) array
(** [(distance, fraction-of-labelled-users)] — the paper's Fig. 2
    histogram. *)

val at : t -> distance:int -> time:float -> float
(** Density at an exact recorded (distance, time) pair.
    @raise Not_found if either coordinate was not recorded. *)

val mean_relative_error :
  t -> times:float array -> predict:(x:float -> t:float -> float) ->
  float * int
(** [(error, cells)]: the mean of the paper's relative error
    [|predict - actual| / actual] (Eq. 8) over every recorded cell at
    [times] whose observed density is positive, and the number of such
    cells.  Distances are the outer loop and [times] the inner one, in
    array order, so the sum is the same bit for bit on every call.  The
    mean is [nan] when no cell qualifies.
    @raise Not_found if a time in [times] was not recorded. *)

val series_at_distance : t -> distance:int -> float array
(** Time series [I(x, ·)] for one distance.  @raise Not_found. *)

val pp : Format.formatter -> t -> unit
(** Fixed-width table, distances as rows. *)
