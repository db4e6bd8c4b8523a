(* The serving layer's transport.  See transport.mli for the
   concurrency model (event loop, worker queue, deadlines, drain). *)

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

let max_header = 16 * 1024

(* Minor heap of each of the server's domains, in words: 2 M words,
   16 MB.  In OCaml 5 every minor collection stops all domains, and a
   domain asleep in a blocking call (the event loop in select, an idle
   worker in Condition.wait) takes part through its backup thread,
   which must first be woken.  A 200-point POST /predict allocates its
   JSON trees, boxed floats and response bytes on the worker.  On
   perfbench serve-read (one worker, 2-core Xeon container, seeds 4-6,
   10 s runs) the default 256 k words on the worker gave 882-940
   requests/s and a p99 of 5.3-5.9 ms; 2 M words gave 1,055-1,261
   requests/s and 3.2-4.7 ms.  The event loop's own collections stall
   the worker the same way once it idles between batches: with the
   event loop at the default size as well, a worker that handles a
   batch in 0.23 ms read a p99 of 4.2-4.4 ms, and 2.8-3.0 ms with it
   at 2 M words (seeds 5001-5004).  The size is per domain, so each
   domain sets its own. *)
let minor_heap_words = 2 * 1024 * 1024

(* Parsed requests a connection may queue ahead of the one in flight
   (HTTP/1.1 pipelining); past this the event loop stops reading the
   socket until responses drain — backpressure, not disconnection. *)
let max_pipeline = 8

(* How long a connection the server decided to close lingers in a
   read-and-discard state after its final response is flushed.  Closing
   with unread request bytes pending would RST away the response; the
   linger sends our FIN first and waits (briefly) for the peer's. *)
let linger_timeout = 1.0

(* Unix.select cannot take fds >= FD_SETSIZE; an accepted fd past this
   is shed with a blocking 503 instead of entering the event loop. *)
let fd_select_limit = 1024

let fd_int (fd : Unix.file_descr) : int = Obj.magic fd (* Unix: fds are ints *)

(* A fully parsed request handed to the worker pool, tagged with the
   connection it came from (by id, not fd — fds are recycled), or
   background work no connection waits on. *)
type job =
  | Request of {
      conn : int;
      req : Http.request;
      keep_alive : bool;  (* what the response's Connection: header says *)
    }
  | Background of (unit -> unit)

(* A serialized response travelling back to the event loop. *)
type done_msg = {
  dn_conn : int;
  dn_bytes : string;
  dn_keep_alive : bool;
}

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  queue : job Queue.t;  (* parsed requests awaiting a worker *)
  qmutex : Mutex.t;
  qcond : Condition.t;
  mutable qclosed : bool;
  done_q : done_msg Queue.t;  (* responses awaiting the event loop *)
  done_mutex : Mutex.t;
  inflight : int Atomic.t;
  handled : int Atomic.t;
}

let m_shed = Obs.Metrics.counter "serve.shed"
let m_healthz = Obs.Metrics.counter ~label:"healthz" "serve.requests"
let m_responses status = Obs.Metrics.counter ~label:(string_of_int status) "serve.responses"

(* connection-lifecycle series for the event loop: opened/closed totals,
   a live-connection gauge (the shedding quantity), and reuse — a
   request served on a connection that already served one.  Reuse is
   the keep-alive win: reused/opened is the per-connection fan-in. *)
let m_conn_opened = Obs.Metrics.counter "serve.connections_opened"
let m_conn_closed = Obs.Metrics.counter "serve.connections_closed"
let m_conn_reused = Obs.Metrics.counter "serve.connections_reused"
let m_conn_live = Obs.Metrics.gauge "serve.live_connections"

let create cfg =
  let addr = Unix.inet_addr_of_string cfg.host in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd (Unix.ADDR_INET (addr, cfg.port));
     Unix.listen lfd 128;
     Unix.set_nonblock lfd
   with e ->
     Unix.close lfd;
     raise e);
  let bound_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  (* workers write the wake byte; a full pipe means a wake-up is
     already pending, so the write may simply fail with EAGAIN *)
  Unix.set_nonblock wake_w;
  {
    cfg;
    lfd;
    bound_port;
    stop_flag = Atomic.make false;
    wake_r;
    wake_w;
    queue = Queue.create ();
    qmutex = Mutex.create ();
    qcond = Condition.create ();
    qclosed = false;
    done_q = Queue.create ();
    done_mutex = Mutex.create ();
    inflight = Atomic.make 0;
    handled = Atomic.make 0;
  }

let port t = t.bound_port
let inflight t = Atomic.get t.inflight
let handled t = Atomic.get t.handled
let healthz = Http.response 200 "ok\n"

let wake t =
  (* EAGAIN (pipe full) means a wake-up is already pending — fine *)
  try ignore (Unix.write t.wake_w (Bytes.of_string "!") 0 1 : int)
  with Unix.Unix_error _ -> ()

let stop t = if not (Atomic.exchange t.stop_flag true) then wake t

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close t = List.iter close_quietly [ t.lfd; t.wake_r; t.wake_w ]

(* Hand a request or background work to the worker pool. *)
let enqueue t job =
  Mutex.protect t.qmutex (fun () ->
      Queue.push job t.queue;
      Condition.signal t.qcond)

let submit t f = enqueue t (Background f)

(* --- worker pool --- *)

let rec worker_loop t handler =
  let next =
    Mutex.protect t.qmutex (fun () ->
        while Queue.is_empty t.queue && not t.qclosed do
          Condition.wait t.qcond t.qmutex
        done;
        Queue.take_opt t.queue (* None: closed and drained *))
  in
  match next with
  | None -> ()
  | Some (Request { conn; req; keep_alive }) ->
    let resp = handler req in
    Atomic.decr t.inflight;
    let msg =
      {
        dn_conn = conn;
        dn_bytes = Http.serialize_response ~keep_alive resp;
        dn_keep_alive = keep_alive;
      }
    in
    Mutex.protect t.done_mutex (fun () -> Queue.push msg t.done_q);
    wake t;
    worker_loop t handler
  | Some (Background f) ->
    f ();
    worker_loop t handler

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  go ()

(* --- the event loop --- *)

(* Per-connection state.  Only the event-loop thread ever touches a
   conn, so none of this needs locking; workers refer to connections by
   id and the loop rechecks liveness when a response comes back. *)
type conn = {
  cn_fd : Unix.file_descr;
  cn_id : int;
  cn_parser : Http.parser;
  cn_pending : Http.request Queue.t;  (* parsed, awaiting dispatch *)
  mutable cn_out : Bytes.t;  (* unsent response bytes *)
  mutable cn_out_off : int;
  mutable cn_busy : bool;  (* a request is with a worker *)
  mutable cn_close_after : bool;  (* close once current work is flushed *)
  mutable cn_lingering : bool;  (* FIN sent; reading until the peer's *)
  mutable cn_peer_eof : bool;
  mutable cn_error : Http.response option;
      (* parse error waiting for in-flight responses to go out first *)
  mutable cn_deadline : float;  (* absolute; infinity while busy *)
  mutable cn_served : int;  (* responses completed on this connection *)
}

let shed_response () =
  Http.response 503 "connection limit reached, try again\n"

(* The heart of the server: one thread multiplexing the listener, the
   worker wake pipe and every live connection with Unix.select.  All
   sockets are non-blocking; reads feed per-connection incremental
   parsers, fully parsed requests go to the worker queue, responses
   come back over [done_q] and are flushed through per-connection
   output buffers.  Worker domains never see a socket. *)
let event_loop t record =
  let conns_by_id : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let conns_by_fd : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let draining = ref false in
  let chunk = Bytes.create 16384 in
  let now () = Unix.gettimeofday () in
  let alive c = Hashtbl.mem conns_by_id c.cn_id in

  let close_conn c =
    if alive c then begin
      Hashtbl.remove conns_by_id c.cn_id;
      Hashtbl.remove conns_by_fd c.cn_fd;
      close_quietly c.cn_fd;
      record (fun () ->
          Obs.Metrics.incr m_conn_closed;
          Obs.Metrics.set m_conn_live
            (float_of_int (Hashtbl.length conns_by_id)))
    end
  in

  let out_pending c = c.cn_out_off < Bytes.length c.cn_out in

  let enqueue_out c s =
    if not (out_pending c) then begin
      c.cn_out <- Bytes.of_string s;
      c.cn_out_off <- 0
    end
    else begin
      (* a pipelined response lands before the previous one flushed *)
      let rem = Bytes.length c.cn_out - c.cn_out_off in
      let nb = Bytes.create (rem + String.length s) in
      Bytes.blit c.cn_out c.cn_out_off nb 0 rem;
      Bytes.blit_string s 0 nb rem (String.length s);
      c.cn_out <- nb;
      c.cn_out_off <- 0
    end
  in

  (* best-effort non-blocking write; false = the connection died *)
  let flush c =
    let total = Bytes.length c.cn_out in
    let rec go () =
      if c.cn_out_off >= total then true
      else
        match
          Unix.write c.cn_fd c.cn_out c.cn_out_off (total - c.cn_out_off)
        with
        | n ->
          c.cn_out_off <- c.cn_out_off + n;
          go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> false
    in
    go ()
  in

  let update_deadline c =
    let n = now () in
    c.cn_deadline <-
      (if c.cn_lingering then c.cn_deadline
       (* an unflushed earlier response keeps the write deadline armed
          even while a long handler (e.g. /fit) runs *)
       else if out_pending c then n +. t.cfg.write_timeout
       else if c.cn_busy then infinity (* a /fit may legitimately take long *)
       else if Http.parser_partial c.cn_parser then n +. t.cfg.read_timeout
       else n +. t.cfg.idle_timeout)
  in

  (* server-initiated close: FIN first, then read-and-discard until the
     peer's FIN (or a short deadline), so unread request bytes in the
     kernel buffer cannot RST away a response already in flight *)
  let start_linger c =
    if c.cn_peer_eof then close_conn c
    else begin
      c.cn_lingering <- true;
      (try Unix.shutdown c.cn_fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ());
      c.cn_deadline <- now () +. linger_timeout
    end
  in

  (* send a final response (error or shed) and close the connection *)
  let emit_final c resp =
    c.cn_close_after <- true;
    c.cn_error <- None;
    Queue.clear c.cn_pending;
    Atomic.incr t.handled;
    record (fun () -> Obs.Metrics.incr (m_responses resp.Http.status));
    enqueue_out c (Http.serialize_response ~keep_alive:false resp);
    if not (flush c) then close_conn c
    else if not (out_pending c) then start_linger c
    else update_deadline c
  in

  let rec dispatch c =
    if (not c.cn_busy) && not (Queue.is_empty c.cn_pending) then begin
      let req = Queue.pop c.cn_pending in
      let keep_alive =
        Http.keep_alive req && (not !draining) && not c.cn_close_after
      in
      if not keep_alive then c.cn_close_after <- true;
      if c.cn_served > 0 then
        record (fun () -> Obs.Metrics.incr m_conn_reused);
      if req.Http.meth = "GET" && req.Http.path = "/healthz" then begin
        (* answered here: a liveness probe never waits for a worker *)
        record (fun () ->
            Obs.Metrics.incr m_healthz;
            Obs.Metrics.incr (m_responses 200));
        complete c
          {
            dn_conn = c.cn_id;
            dn_bytes = Http.serialize_response ~keep_alive healthz;
            dn_keep_alive = keep_alive;
          }
      end
      else begin
        c.cn_busy <- true;
        update_deadline c;
        Atomic.incr t.inflight;
        enqueue t (Request { conn = c.cn_id; req; keep_alive })
      end
    end

  (* a response is ready for this connection *)
  and complete c msg =
    c.cn_busy <- false;
    c.cn_served <- c.cn_served + 1;
    Atomic.incr t.handled;
    if (not msg.dn_keep_alive) || !draining then c.cn_close_after <- true;
    enqueue_out c msg.dn_bytes;
    on_writable c

  (* flush progress; when the buffer empties, move the connection on *)
  and on_writable c =
    if not (flush c) then close_conn c
    else if out_pending c then update_deadline c
    else if c.cn_close_after then begin
      Queue.clear c.cn_pending;
      if not c.cn_busy then start_linger c else update_deadline c
    end
    else begin
      (* the pipeline window may have freed: drain any requests already
         buffered in the parser before dispatching, so a burst larger
         than max_pipeline cannot strand its tail until the read
         deadline (the peer owes no more bytes, so the socket never
         turns readable again) *)
      parse_new c;
      if alive c then
        if
          c.cn_peer_eof && (not c.cn_busy)
          && Queue.is_empty c.cn_pending
          && not (out_pending c)
        then close_conn c (* peer hung up and nothing is owed *)
        else update_deadline c
    end

  (* a deferred parse error goes out only after the responses that
     precede it, keeping pipelined responses in order *)
  and maybe_emit_error c =
    if
      alive c && (not c.cn_busy)
      && Queue.is_empty c.cn_pending
      && not (out_pending c)
    then
      match c.cn_error with
      | Some resp -> emit_final c resp
      | None -> ()

  and parse_new c =
    let rec go () =
      if
        c.cn_error = None && (not c.cn_close_after)
        && Queue.length c.cn_pending < max_pipeline
      then
        match Http.parser_next c.cn_parser with
        | `Request req ->
          Queue.push req c.cn_pending;
          (* nothing may follow a Connection: close request *)
          if Http.keep_alive req then go ()
        | `More -> ()
        | `Error err ->
          let resp =
            match err with
            | Http.Too_large msg -> Http.response 413 (msg ^ "\n")
            | Http.Bad msg -> Http.response 400 (msg ^ "\n")
            | Http.Timeout | Http.Closed -> Http.response 400 "bad request\n"
          in
          c.cn_error <- Some resp
    in
    go ();
    dispatch c;
    maybe_emit_error c
  in

  let want_read c =
    if c.cn_lingering then true
    else
      (not c.cn_peer_eof) && c.cn_error = None && (not c.cn_close_after)
      && Queue.length c.cn_pending < max_pipeline
  in

  let on_readable c =
    let rec rd budget =
      (* bounded per wake-up so one fat connection cannot starve the rest *)
      if budget = 0 then `Progress
      else
        match Unix.read c.cn_fd chunk 0 (Bytes.length chunk) with
        | 0 -> `Eof
        | n ->
          if not c.cn_lingering then Http.parser_feed c.cn_parser chunk 0 n;
          rd (budget - 1)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Progress
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> rd budget
        | exception Unix.Unix_error _ -> `Dead
    in
    match rd 16 with
    | `Dead -> close_conn c
    | `Eof ->
      c.cn_peer_eof <- true;
      if c.cn_lingering then close_conn c
      else begin
        parse_new c;
        if
          alive c && (not c.cn_busy)
          && Queue.is_empty c.cn_pending
          && (not (out_pending c))
          && c.cn_error = None
        then
          (* nothing owed — including a dangling half request that can
             never complete now *)
          close_conn c
      end
    | `Progress ->
      if not c.cn_lingering then parse_new c;
      if alive c then update_deadline c
  in

  let accept_one fd =
    (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    if fd_int fd >= fd_select_limit then begin
      (* beyond what select can multiplex: blocking 503, then close.
         The send timeout bounds the write so a peer that never reads
         cannot stall the event loop *)
      (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
       with Unix.Unix_error _ -> ());
      ignore (Http.write_response fd (shed_response ()) : bool);
      close_quietly fd;
      Atomic.incr t.handled;
      record (fun () ->
          Obs.Metrics.incr m_shed;
          Obs.Metrics.incr (m_responses 503))
    end
    else begin
      incr next_id;
      let c =
        {
          cn_fd = fd;
          cn_id = !next_id;
          cn_parser =
            Http.parser ~max_header ~max_body:t.cfg.max_body;
          cn_pending = Queue.create ();
          cn_out = Bytes.empty;
          cn_out_off = 0;
          cn_busy = false;
          cn_close_after = false;
          cn_lingering = false;
          cn_peer_eof = false;
          cn_error = None;
          cn_deadline = now () +. t.cfg.idle_timeout;
          cn_served = 0;
        }
      in
      Hashtbl.replace conns_by_id c.cn_id c;
      Hashtbl.replace conns_by_fd c.cn_fd c;
      record (fun () ->
          Obs.Metrics.incr m_conn_opened;
          Obs.Metrics.set m_conn_live
            (float_of_int (Hashtbl.length conns_by_id)));
      if Hashtbl.length conns_by_id > t.cfg.max_conns then begin
        record (fun () -> Obs.Metrics.incr m_shed);
        emit_final c (shed_response ())
      end
    end
  in

  let rec accept_all () =
    match Unix.accept t.lfd with
    | fd, _ ->
      accept_one fd;
      accept_all ()
    | exception
        Unix.Unix_error
          ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
            _,
            _ ) ->
      ()
    | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
      (* out of fds: back off; pending connections stay in the backlog *)
      ()
  in

  let drain_done () =
    let msgs = Queue.create () in
    Mutex.protect t.done_mutex (fun () -> Queue.transfer t.done_q msgs);
    Queue.iter
      (fun msg ->
        match Hashtbl.find_opt conns_by_id msg.dn_conn with
        | Some c -> complete c msg
        | None -> () (* connection died while the worker was busy *))
      msgs
  in

  let begin_drain () =
    if not !draining then begin
      draining := true;
      close_quietly t.lfd;
      let all = Hashtbl.fold (fun _ c acc -> c :: acc) conns_by_id [] in
      (* pick up bytes already in the kernel first: a request fully sent
         before the signal landed must be served, not dropped with its
         connection *)
      List.iter (fun c -> if alive c then on_readable c) all;
      (* idle connections close now; ones with a request in flight —
         busy, queued, or still being read — finish it first (dispatch
         marks their response Connection: close) *)
      List.iter
        (fun c ->
          if
            (not c.cn_busy)
            && Queue.is_empty c.cn_pending
            && (not (out_pending c))
            && (not (Http.parser_partial c.cn_parser))
            && c.cn_error = None && not c.cn_lingering
          then close_conn c)
        all
    end
  in

  let sweep tnow =
    let expired =
      Hashtbl.fold
        (fun _ c acc -> if tnow > c.cn_deadline then c :: acc else acc)
        conns_by_id []
    in
    List.iter
      (fun c ->
        if c.cn_lingering || out_pending c then close_conn c
        else if
          Http.parser_partial c.cn_parser
          && (not c.cn_busy)
          && Queue.is_empty c.cn_pending
        then emit_final c (Http.response 408 "request read timed out\n")
        else close_conn c (* idle keep-alive connection *))
      expired
  in

  let rec loop () =
    if Atomic.get t.stop_flag then begin_drain ();
    if !draining && Hashtbl.length conns_by_id = 0 then ()
    else begin
      let tnow = now () in
      sweep tnow;
      if !draining && Hashtbl.length conns_by_id = 0 then ()
      else begin
        let reads = ref [ t.wake_r ] in
        if not !draining then reads := t.lfd :: !reads;
        let writes = ref [] in
        let nearest = ref (tnow +. 0.5) in
        Hashtbl.iter
          (fun _ c ->
            if c.cn_deadline < !nearest then nearest := c.cn_deadline;
            if want_read c then reads := c.cn_fd :: !reads;
            if out_pending c then writes := c.cn_fd :: !writes)
          conns_by_id;
        let timeout = Float.max 0.01 (Float.min 0.5 (!nearest -. tnow)) in
        match Unix.select !reads !writes [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | rs, ws, _ ->
          if List.memq t.wake_r rs then begin
            drain_wake t;
            drain_done ()
          end;
          (* existing connections first: accepting earlier could recycle
             an fd closed by drain_done/on_readable into a fresh
             connection that a stale entry in rs/ws would then resolve
             to, running its handler spuriously *)
          List.iter
            (fun fd ->
              if fd != t.wake_r && fd != t.lfd then
                match Hashtbl.find_opt conns_by_fd fd with
                | Some c -> on_readable c
                | None -> ())
            rs;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns_by_fd fd with
              | Some c -> if out_pending c then on_writable c
              | None -> ())
            ws;
          if (not !draining) && List.memq t.lfd rs then accept_all ();
          loop ()
      end
    end
  in
  loop ();
  (* all connections drained: close the job queue so workers exit *)
  Mutex.protect t.qmutex (fun () ->
      t.qclosed <- true;
      Condition.broadcast t.qcond)

let run t ~record handler =
  Parallel.Pool.run_workers ~jobs:(t.cfg.jobs + 1) (fun k ->
      (* the minor heap is per domain: each sizes its own, and the event
         loop gives the calling domain its old size back *)
      let old = (Gc.get ()).Gc.minor_heap_size in
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
      if k = 0 then
        Fun.protect
          ~finally:(fun () ->
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = old })
          (fun () -> event_loop t record)
      else worker_loop t handler);
  close_quietly t.wake_r;
  close_quietly t.wake_w
