(** Minimal JSON codec for the serving layer.

    The repository is dependency-free by policy, so [/fit] request
    bodies and response payloads are handled by this small
    recursive-descent parser / printer instead of an external JSON
    library.  It supports the full JSON grammar except that numbers
    are always represented as [float] (fine for densities, hours and
    the handful of integer knobs the API accepts). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an
    error, and so is nesting arrays and objects more than 32 levels
    deep (the API's own documents need 3).  The error string carries
    a byte offset.  [parse] never raises. *)

val to_string : t -> string
(** Compact rendering.  Non-finite numbers render as [null] (JSON has
    no NaN/Infinity). *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] when the value is not an object or lacks the
    field (a [Null] field is returned as [Some Null]). *)

val to_float : t -> float option
val to_int : t -> int option
(** [to_int] accepts only numbers that are exactly integral. *)

val to_list : t -> t list option
val to_string_opt : t -> string option
