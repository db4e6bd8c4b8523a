(** The serving layer's transport: the listener, every connection's
    state machine, its deadlines, linger and shedding, the worker queue
    and the graceful drain.  It sees the application only as a function
    from a parsed {!Http.request} to an {!Http.response}, run on a
    worker domain, plus {!submit} for background work (the live
    refits).  It answers [GET /healthz] itself.

    {2 Concurrency and robustness}

    A single event-loop thread multiplexes the listener and every live
    connection with [Unix.select]: sockets are non-blocking, each
    connection owns an incremental {!Http.parser} and a buffered output
    queue, and only {e fully parsed} requests are handed to the worker
    pool (run via {!Parallel.Pool.run_workers}), as is background work.
    Serialized responses travel back over a wake pipe, so worker
    domains never touch a socket and a slow or stalled peer can never
    block a worker.  Each worker domain reserves a 16 MB minor heap as
    it starts: in OCaml 5 every minor collection stops all domains, the
    event loop's included.

    [GET /healthz] never reaches a worker: the event loop answers it
    when it dispatches the connection's next request, so a liveness
    probe does not wait behind a long [/fit].  By then the connection's
    earlier requests have been answered, so responses keep their order.

    Connections are HTTP/1.1 keep-alive by default ([Connection:]
    headers honoured on both 1.0 and 1.1; see {!Http.keep_alive}), with
    pipelining: bytes past one request's body are preserved as the
    start of the next, and up to a small window of parsed requests may
    queue per connection — responses always return in request order.

    Per-connection deadlines replace socket timeouts: a connection
    mid-request has [read_timeout] to finish it (then [408]); one with
    a stalled response write has [write_timeout] (then close); an idle
    keep-alive connection is closed silently after [idle_timeout]; a
    connection whose request is with a worker has no deadline (a /fit
    may legitimately take long).  The header block and body are
    bounded, and once more than [max_conns] connections are live, new
    ones are answered [503] and closed.  {!stop} closes the listener,
    lets every in-flight request — queued, running, or still being
    read — finish with a [Connection: close] response, and returns
    from {!run}.

    Connection-lifecycle series on [/metrics]:
    [serve.connections_opened], [serve.connections_closed],
    [serve.connections_reused] (requests served on a connection that
    had already served one — the keep-alive win) and the
    [serve.live_connections] gauge (the shedding quantity). *)

type config = {
  host : string;
  port : int;
  jobs : int;
  max_conns : int;
  read_timeout : float;
  write_timeout : float;
  idle_timeout : float;
  max_body : int;
}
(** The fields of the same names in {!Server.config}. *)

type t

val create : config -> t
(** Bind and listen.
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : t -> int
(** The actual bound port. *)

val healthz : Http.response
(** What [GET /healthz] answers: [200 ok]. *)

val run :
  t -> record:((unit -> unit) -> unit) -> (Http.request -> Http.response) -> unit
(** [run t ~record handler] serves until {!stop}, calling [handler] on
    [config.jobs] worker domains.  [record f] runs [f] with the
    server-wide metrics context installed, under its lock; the event
    loop records its connection series and the responses it writes
    itself (shed, [408], parse errors, [/healthz]) through it.  The
    listener and wake pipe are closed when [run] returns. *)

val submit : t -> (unit -> unit) -> unit
(** Queue background work for a worker; no connection waits on it. *)

val inflight : t -> int
(** Requests handed to the workers and not yet answered. *)

val handled : t -> int
(** Responses written so far (shed connections included). *)

val stop : t -> unit
(** Request shutdown: stop accepting, drain in-flight requests, make
    {!run} return.  Safe to call from a signal handler or another
    thread/domain; idempotent. *)

val close : t -> unit
(** Release the listener and wake pipe of a transport that will never
    {!run}. *)
