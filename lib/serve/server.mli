(** The dlosn prediction-serving layer: a dependency-free HTTP/1.1
    server on Unix sockets exposing fitted DL-model predictions and the
    {!Obs} metrics registry.

    This module is the application: the handlers and the state they
    share.  The listener, connections and worker domains are
    {!Transport}'s.

    {2 Endpoints}

    - [GET /healthz] — liveness: [200 ok], answered by the transport on
      its event loop, never behind a worker, and without a trace id.
    - [GET /metrics] — the {!Obs.Metrics} registry in Prometheus text
      exposition format (all [fit.*]/[pde.*]/[pool.*]/[serve.*] series
      recorded by this process).
    - [POST /fit] — calibrate a registry model against a posted density
      observation (JSON; see [docs/SERVING.md]).  The optional ["model"]
      field picks any {!Dl.Predictor} registry entry except ["network"]
      (default ["dl"]); an unknown name is a structured 400 listing the
      registered names.  The result is cached keyed by the MD5 of the
      request body {e and} the resolved solver configuration (scheme,
      grid size, time step) {e and} the resolved model name, so re-posting identical input is a cache hit
      while requests differing only in solver options or model never
      alias.
    - [GET /predict?x=&t=[&fit=]] — density I(x, t) under a cached fit
      ([fit] defaults to the most recently completed one).
    - [POST /predict] — batch evaluation: a JSON body
      [{"fit": id?, "points": [[x, t], ...]}] evaluates up to 10k
      points against one cached fit in a single round-trip: one lookup
      in the per-fit solution memo per distinct [t], and on a miss one
      solve resumed from the fit's checkpoint at the whole hour below
      [t] (at most 100 steps).  The served I(x, t) is the default-grid
      solve with snapshots at hours 2, 3, ..., floor(t), then [t]
      (see docs/SERVING.md).
    - [POST /observe] — streaming vote ingestion: a JSON batch of
      timestamped votes for a story folds into an incremental
      {!Live.Profile} (O(1) per vote), and drift of the currently
      serving fit against the accumulated profile may schedule a
      warm-started background refit on the worker pool.  See
      [docs/STREAMING.md].
    - [GET /live[?story=]] — live-ingestion status per story: votes,
      watermark, drop counters, fits/refits completed, last drift.
    - [GET /debug/traces?n=] — the most recent completed request
      traces (default 32, newest first) as JSON: trace id, method,
      path, status, duration and the full [serve.request] span tree.
      Spans served from a store-recovered fit carry a
      [link.trace_id] attribute pointing at the originating fit's
      trace (across process restarts).
    - [GET /debug/flame] — every trace in the ring rendered as
      folded-stack text ({!Obs.Span.to_folded}), ready for
      flamegraph.pl or speedscope.

    {2 Tracing}

    Every request a worker answers gets a trace id — the [X-Trace-Id]
    header when it is a sane token (1–64 chars of [[A-Za-z0-9_-]]),
    otherwise a fresh 32-hex id.  The id is stamped into every log
    record the request emits, returned as an [X-Trace-Id] response
    header, and attached to the request's [serve.request] span tree,
    which lands in a bounded ring of [config.trace_capacity] recent
    traces served by the [/debug] endpoints.  Requests slower than
    [config.slow_request_ms] emit a ["serve.slow_request"] warn log
    carrying the trace id.  With [config.otlp_endpoint] set, spans,
    logs and a periodic metrics snapshot are exported to that OTLP/
    HTTP collector via {!Otlp} (batched, retried, dropped on final
    failure — a dead collector never wedges the server).

    {2 Persistence}

    With [config.store_dir] set, the server opens a {!Store} there on
    boot: recovered checkpoints warm-start the fit cache (a restart
    serves previously fitted stories from [GET /predict] without
    refitting, and re-posting a pre-restart [/fit] body is a cache
    hit), and every freshly computed ["dl"] / ["dl-linear"] fit is
    appended durably to the store's WAL before the response is written
    (records carry the model name; closure-backed models — baselines,
    epidemic — are cached in memory only).  Store recovery
    counters ([store.replayed_records], [store.recovered_partial], …)
    are recorded into the server aggregate, so they appear on
    [GET /metrics].  A store failure during a request degrades to a
    warn log; the fit response itself still succeeds.

    {2 Observability}

    Each request records into a private {!Obs.Shard} merged under a
    lock into a server-wide aggregate context after the response is
    written — [GET /metrics] renders that aggregate, so worker-domain
    metrics are never read racily.  When {!run} returns, the aggregate
    is merged into the calling domain's context so a final
    [--metrics-out] dump sees everything the server recorded. *)

type config = {
  host : string;  (** bind address (default ["127.0.0.1"]) *)
  port : int;  (** 0 picks an ephemeral port, see {!port} *)
  jobs : int;
      (** worker domains that handle requests and live refits (default
          1; {!create} rejects fewer than 1) *)
  max_conns : int;
      (** live-connection cap before 503 shedding (default 1000; the
          event loop's [Unix.select] cannot watch fds ≥ 1024, so caps
          above that shed on the fd value instead) *)
  read_timeout : float;
      (** seconds a partially read request may stall before [408]
          (default 10) *)
  write_timeout : float;
      (** seconds a response write may stall before close (default 10) *)
  idle_timeout : float;
      (** seconds an idle keep-alive connection is held open
          (default 30) *)
  max_body : int;  (** request body cap in bytes (default 2 MiB) *)
  fit_starts_cap : int;
      (** upper bound on the Nelder--Mead restarts a [/fit] request may
          ask for (default 16) *)
  store_dir : string option;
      (** persistent model store directory; [None] (the default) keeps
          the fit cache purely in-memory *)
  slow_request_ms : float;
      (** requests slower than this warn with their trace id
          (default 1000) *)
  trace_capacity : int;
      (** ring-buffer slots for completed request traces served by
          [/debug/traces] and [/debug/flame] (default 128) *)
  otlp_endpoint : string option;
      (** OTLP/HTTP collector ([http://host:port]) for span, log and
          metric export; [None] (the default) exports nothing *)
  otlp_sample_rate : float;
      (** head-sampling keep fraction for exported traces and their
          logs, keyed on the trace id ([Otlp.sampled]);
          1.0 (the default) exports everything *)
  live_lateness : float;
      (** default out-of-order window for [POST /observe] streams, in
          event-time hours (default 2; a story's first batch may
          override it with a ["lateness"] field) *)
  drift_threshold : float;
      (** mean relative error of the serving fit against the live
          profile beyond which a refit is scheduled (default
          {!Live.Drift.default}) *)
  refit_min_votes : int;
      (** profile votes required before the daemon fits at all *)
  refit_min_new_votes : int;
      (** votes that must have arrived since the serving fit *)
  live_seed : int;
      (** rng seed for daemon fits — fixed, so a refit on the same
          profile state is exactly reproducible offline (default 7) *)
  graph : Socialnet.Dataset.t option;
      (** influence graph used to resolve hop distances for votes that
          arrive without a ["distance"] label (the first batch must
          then name the story's ["initiator"]); [None] (the default)
          makes distance labels mandatory *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** Bind and listen (the port is ready once [create] returns, so a
    caller may start issuing requests as soon as {!run} is entered in
    another thread).  Forces {!Obs.set_enabled}[ true]: a metrics
    endpoint on a disabled registry would serve only zeros.
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : t -> int
(** The actual bound port (useful with [config.port = 0]). *)

val run : t -> unit
(** Serve until {!stop}.  Blocks the calling domain; spawns
    [config.jobs] worker domains. *)

val stop : t -> unit
(** Request shutdown: stop accepting, drain in-flight requests, make
    {!run} return.  Safe to call from a signal handler or another
    thread/domain; idempotent. *)

val install_signal_handlers : t -> unit
(** Route SIGINT and SIGTERM to {!stop} (graceful drain). *)

val requests_handled : t -> int
(** Connections fully handled so far (shed connections included). *)

(** {2 The application without a socket} *)

type app
(** The handlers and their state (fit cache, store, live stories,
    trace ring, metrics aggregate), bound to no socket and running no
    worker. *)

val app : config -> app
(** The application {!create} serves, built without a socket: the store
    is opened and OTLP export started as there, and a live refit runs
    at once, on the thread whose [/observe] scheduled it.  Forces
    {!Obs.set_enabled}[ true]. *)

val handle : app -> Http.request -> Http.response
(** Answer one request as a worker does: route it, record its metrics
    and trace, and add its [X-Trace-Id] header. *)
