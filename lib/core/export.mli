(** Plot-ready exports of experiment data.

    Writes tab-separated files (one header line, then rows) that load
    directly into gnuplot / pandas / R, so the figures the bench prints
    as text can be re-drawn graphically.  All writers create or
    truncate their target file. *)

val write_density_series : Socialnet.Density.t -> path:string -> unit
(** Long format: [time  distance  density  population] — Figs 3/5. *)

val write_profiles : Socialnet.Density.t -> path:string -> unit
(** Wide format: one row per time, one column per distance — Fig 4. *)

val write_distance_distribution :
  (int * float) array -> path:string -> unit
(** [distance  fraction] — Fig 2. *)

val write_growth_rate :
  Growth.t -> t0:float -> t1:float -> samples:int -> path:string -> unit
(** [t  r] — Fig 6. *)

val write_accuracy_table : Accuracy.table -> path:string -> unit
(** [distance  average  t2 ... tn] with accuracies in percent and [NA]
    for undefined cells — Tables I/II. *)

val write_solution_surface :
  ?samples_x:int -> Model.solution -> path:string -> unit
(** Dense [x  t  density] triplets of the solved surface (default 101
    x-samples at each recorded time) — for heatmaps. *)

val export_experiment :
  Pipeline.experiment -> dir:string -> prefix:string -> string list
(** Writes the standard bundle (density series, profiles,
    predicted-vs-actual, accuracy table, surface) into [dir] (created
    if missing) and returns the written paths. *)
