(** Backend behind {!Pool}: how a batch of worker thunks is executed.

    Two interchangeable implementations exist; dune copies the right one
    to [pool_scheduler.ml] based on the compiler version:

    - [pool_scheduler_domains.ml] (OCaml >= 5.0) spawns one Domain per
      thunk beyond the first and runs the first on the calling domain;
    - [pool_scheduler_seq.ml] (OCaml 4.x) runs the thunks in order on
      the calling thread.

    Thunks must not raise: {!Pool} wraps every worker so that exceptions
    are recorded and re-raised deterministically after the batch. *)

val domains_available : bool
(** [true] iff this build can actually run workers concurrently. *)

val run : (unit -> unit) array -> unit
(** Run every thunk to completion and return once all have finished.
    Concurrent on OCaml 5 (one domain per extra thunk), sequential
    otherwise.  The array length is expected to be small (it is the
    number of workers, not the number of items). *)
