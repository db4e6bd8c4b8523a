(** Work pool for domain-parallel loops with deterministic results.

    Every automatic calibration in the DL pipeline is a multi-start
    optimisation where each objective evaluation is a full PDE solve,
    and batch evaluation repeats that per story.  Those loops are
    embarrassingly parallel — each item owns an independent
    [Numerics.Rng] stream — so this module provides the one primitive
    they need: run [n] independent index-addressed tasks on up to
    [jobs] worker domains and collect the results {e in index order}.

    {2 Determinism contract}

    For a fixed seed, a parallel run is bit-identical to a sequential
    run provided the per-item work is itself deterministic and shares
    no mutable state across items (the library's fit/batch/sensitivity
    loops satisfy this by construction):

    - items are partitioned into contiguous index blocks, statically,
      so the assignment of items to workers never depends on timing;
    - results are written into per-index slots and read back in index
      order after all workers have joined — no racy accumulation;
    - when workers raise, the exception re-raised to the caller is the
      one from the {e smallest failing item index} (with its original
      backtrace), matching what a sequential left-to-right loop would
      have reported first.

    {2 Observability}

    When {!Obs.enabled} is on, each worker domain records metrics and
    spans into a private [Obs.Shard], merged on the calling domain in
    worker-index order after the join — so instrumented parallel runs
    report exact totals and stay bit-identical in their numeric
    results.  Each parallel call additionally records
    [pool.tasks_per_domain] and [pool.busy_ns] counters (labelled by
    worker index), a [pool.imbalance] gauge (max busy time over mean),
    and a debug-level [pool.summary] log line at teardown. *)

type t
(** A pool is just a worker-count policy; workers are spawned per call
    and joined before the call returns, so a [t] is cheap, immutable
    and safe to share. *)

val default_jobs : unit -> int
(** Value of [DLOSN_NUM_DOMAINS] when set to a positive integer, [1]
    otherwise (parallelism is strictly opt-in). *)

val sequential : t
(** The one-worker pool: all loops run inline on the caller. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] makes a pool of [jobs] workers ([jobs] defaults
    to {!default_jobs}[ ()]).
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** Worker count of the pool. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n body] runs [body i] for every
    [i] in [0 .. n - 1], partitioned into [jobs pool] contiguous
    blocks.  [body] must not share unsynchronised mutable state across
    indices (writing to slot [i] of a result array is fine).  A raising
    index aborts the remainder of its own block; the smallest failing
    index's exception is re-raised after all workers join. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] is [Array.map f xs] with the applications
    distributed over the pool; the result order is the input order. *)

val run_workers : jobs:int -> (int -> unit) -> unit
(** [run_workers ~jobs body] runs [body 0 .. body (jobs - 1)] as
    long-lived cooperating workers and returns once every body has
    finished.  Unlike {!parallel_for} this makes no determinism or
    independence promises: it is the raw scheduler hook for components
    that coordinate through their own synchronisation — e.g. a server's
    accept loop feeding connection handlers.  [body 0] runs on the
    calling domain and each other body on a domain of its own.
    @raise Invalid_argument if [jobs < 1]. *)
