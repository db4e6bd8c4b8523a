(** Descriptive statistics, error metrics and simple regression.

    Error metrics follow the usual conventions; the paper's own
    "prediction accuracy" lives in [Dl.Accuracy] because its definition
    is specific to the paper (Eq. 8). *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance ([n-1] denominator); [0.] for [n < 2]. *)

val std : float array -> float
val median : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0,1\]], linear interpolation between
    order statistics (type-7, the numpy default). *)

val min : float array -> float
val max : float array -> float

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}

val summarize : float array -> summary
val pp_summary : Format.formatter -> summary -> unit

val histogram : ?bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] is an array of [(lo, hi, count)] over
    equal-width bins spanning the data range (default 10 bins). *)

val mape : float array -> float array -> float
(** Mean absolute percentage error of predictions against actuals
    (first argument = predicted, second = actual); actual entries that
    are exactly [0.] are skipped. *)

val pearson : float array -> float array -> float
(** Pearson correlation; [nan] when either side is constant. *)

val linear_regression : float array -> float array -> float * float * float
(** [linear_regression xs ys] is [(slope, intercept, r2)] of the OLS
    fit [y = slope*x + intercept]. *)
