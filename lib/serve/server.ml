(* The dlosn prediction-serving layer.  See server.mli for the design
   contract (endpoints, concurrency model, shard-based metrics
   aggregation, graceful drain). *)

type config = {
  host : string;
  port : int;
  jobs : int;
  max_conns : int;
  read_timeout : float;
  write_timeout : float;
  idle_timeout : float;
  max_body : int;
  fit_starts_cap : int;
  store_dir : string option;
  slow_request_ms : float;
  trace_capacity : int;
  otlp_endpoint : string option;
  otlp_sample_rate : float;
  live_lateness : float;  (* out-of-order window for /observe, hours *)
  drift_threshold : float;  (* mean relative error that triggers a refit *)
  refit_min_votes : int;
  refit_min_new_votes : int;
  live_seed : int;  (* rng seed for daemon fits (deterministic refits) *)
  graph : Socialnet.Dataset.t option;
      (* influence graph for resolving distance-less votes *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    jobs = 1;
    max_conns = 1000;
    read_timeout = 10.;
    write_timeout = 10.;
    idle_timeout = 30.;
    max_body = 2 * 1024 * 1024;
    fit_starts_cap = 16;
    store_dir = None;
    slow_request_ms = 1000.;
    trace_capacity = 128;
    otlp_endpoint = None;
    otlp_sample_rate = 1.0;
    live_lateness = 2.;
    drift_threshold = Live.Drift.default.Live.Drift.threshold;
    refit_min_votes = Live.Drift.default.Live.Drift.min_votes;
    refit_min_new_votes = Live.Drift.default.Live.Drift.min_new_votes;
    live_seed = 7;
    graph = None;
  }

let max_header = 16 * 1024
let max_cached_solutions = 64

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

(* What a cached fit can serve predictions from.  The two PDE backends
   keep their parameters and phi so solutions can be (re)computed per
   requested t and the entry can round-trip through the store; other
   registry models (baselines, epidemic) are closures fitted in memory
   — cacheable, not persistable. *)
type backend =
  | Be_dl of { params : Dl.Params.t; phi : Dl.Initial.t }
  | Be_linear of { params : Dl.Linear_model.params; phi : Dl.Initial.t }
  | Be_fn of { domain : float * float; predict : x:float -> t:float -> float }

type fit_entry = {
  fe_id : string;
  fe_model : string;  (* Predictor registry name *)
  fe_backend : backend;
  fe_params_json : (string * Tiny_json.t) list;  (* rendered for /fit *)
  fe_training_error : float;
  fe_evaluations : int;
  fe_link_trace : string;
      (* for store-recovered entries: the trace id of the run that
         produced the fit, stamped onto serving spans as a span link *)
  mutable fe_sols : (int64 * (x:float -> t:float -> float)) list;
      (* memoized per-t evaluators, newest first (PDE backends only) *)
}

(* One completed request trace, held in the server's bounded ring. *)
type trace_entry = {
  te_trace_id : string;
  te_meth : string;
  te_path : string;
  te_status : int;
  te_dur_ns : int;
  te_root : Obs.Span.t;
}

(* A fully parsed request handed to the worker pool, tagged with the
   connection it came from (by id, not fd — fds are recycled). *)
type request_job = {
  jb_conn : int;
  jb_req : Http.request;
  jb_keep_alive : bool;  (* what the response's Connection: header says *)
}

(* A background refit scheduled by the live-ingestion path.  The task
   carries only the story key and a generation stamp; the worker reads
   the live profile fresh when it runs, so a stale task (the story was
   re-scheduled or removed) is detected and dropped. *)
type refit_task = { rf_story : string; rf_gen : int }

type job = Jb_request of request_job | Jb_refit of refit_task

(* A serialized response travelling back to the event loop. *)
type done_msg = {
  dn_conn : int;
  dn_bytes : string;
  dn_keep_alive : bool;
}

(* Per-story live-ingestion state.  The profile itself is only touched
   under [live_mutex]; the refit daemon snapshots what it needs and
   works outside the lock. *)
type live_story = {
  ls_key : string;
  ls_profile : Live.Profile.t;
  mutable ls_assignment : int array option;
      (* per-user hop labels for resolving distance-less votes *)
  mutable ls_fit : string option;  (* serving fit id for this story *)
  mutable ls_fits : int;  (* daemon fits completed (incl. the initial) *)
  mutable ls_refits : int;  (* drift-triggered warm refits completed *)
  mutable ls_inflight : bool;  (* a refit task is queued or running *)
  mutable ls_votes_at_fit : int;  (* profile votes when ls_fit was made *)
  mutable ls_drift : float;  (* last computed drift (nan = never) *)
  mutable ls_gen : int;  (* bumped per scheduled fit; stales old tasks *)
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
  agg : Obs.Shard.t;
  agg_mutex : Mutex.t;
  cache : (string, fit_entry) Hashtbl.t;
  cache_mutex : Mutex.t;
  mutable last_fit : string option;
  store : Store.t option;
  traces : trace_entry option array; (* ring, trace_capacity slots *)
  mutable trace_next : int; (* monotonic write position *)
  trace_mutex : Mutex.t;
  mutable otlp : Otlp.t option;
  live : (string, live_story) Hashtbl.t;
  live_mutex : Mutex.t;
  live_cursors : (string, string * float) Hashtbl.t;
      (* story -> (record id, obs cursor) recovered from the store:
         where live ingestion left off before the restart *)
  mutable live_workers : bool;  (* refit tasks may go to the queue *)
}

(* --- serve.* metrics (handles are idempotent to register) --- *)

let m_request_ns = Obs.Metrics.histogram "serve.request_ns"
let m_shed = Obs.Metrics.counter "serve.shed"
let m_inflight = Obs.Metrics.gauge "serve.inflight"
let m_cache_hits = Obs.Metrics.counter "serve.fit_cache_hits"
let m_cache_misses = Obs.Metrics.counter "serve.fit_cache_misses"
let m_batch_points = Obs.Metrics.counter "serve.predict_batch_points"
let m_requests label = Obs.Metrics.counter ~label "serve.requests"
let m_responses status = Obs.Metrics.counter ~label:(string_of_int status) "serve.responses"

(* RED-style per-route series: request latency labelled by route, and
   a route:status-class counter so /fit latency and error rates are
   distinguishable from /predict's on /metrics. *)
let m_route_ns route = Obs.Metrics.histogram ~label:route "serve.request_ns"

let status_class status =
  if status < 200 then "1xx"
  else if status < 300 then "2xx"
  else if status < 400 then "3xx"
  else if status < 500 then "4xx"
  else "5xx"

let m_route_status route status =
  Obs.Metrics.counter ~label:(route ^ ":" ^ status_class status)
    "serve.route_responses"

let m_slow = Obs.Metrics.counter "serve.slow_requests"

(* live.* series: the streaming-ingestion loop (POST /observe + refit
   daemon).  Counters follow the Profile outcome taxonomy; drift and
   refit wall-time are histograms so /metrics shows their spread. *)
let m_live_votes = Obs.Metrics.counter "live.votes_ingested"
let m_live_late = Obs.Metrics.counter "live.dropped_late"
let m_live_range = Obs.Metrics.counter "live.dropped_range"
let m_live_beyond = Obs.Metrics.counter "live.beyond_horizon"
let m_live_batches = Obs.Metrics.counter "live.batches"
let m_live_stories = Obs.Metrics.gauge "live.stories"
let m_live_fits = Obs.Metrics.counter "live.fits"
let m_live_refits = Obs.Metrics.counter "live.refits"
let m_live_drift = Obs.Metrics.histogram "live.drift"
let m_live_refit_ns = Obs.Metrics.histogram "live.refit_ns"

(* connection-lifecycle series for the event loop: opened/closed totals,
   a live-connection gauge (the shedding quantity), and reuse — a
   request served on a connection that already served one.  Reuse is
   the keep-alive win: reused/opened is the per-connection fan-in. *)
let m_conn_opened = Obs.Metrics.counter "serve.connections_opened"
let m_conn_closed = Obs.Metrics.counter "serve.connections_closed"
let m_conn_reused = Obs.Metrics.counter "serve.connections_reused"
let m_conn_live = Obs.Metrics.gauge "serve.live_connections"

(* Run [f] with the server-wide aggregate context installed, under its
   lock.  Used to fold request shards in, to record accept-loop events,
   and to render /metrics — never concurrently, so never racily. *)
let with_agg t f =
  Mutex.lock t.agg_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.agg_mutex) (fun () ->
      Obs.Shard.with_shard t.agg f)

(* --- lifecycle --- *)

let growth_json = function
  | Dl.Growth.Constant v ->
    Tiny_json.Object
      [ ("kind", Tiny_json.String "constant"); ("value", Tiny_json.Number v) ]
  | Dl.Growth.Exp_decay { a; b; c } ->
    Tiny_json.Object
      [
        ("kind", Tiny_json.String "exp_decay");
        ("a", Tiny_json.Number a);
        ("b", Tiny_json.Number b);
        ("c", Tiny_json.Number c);
      ]

let dl_params_json (p : Dl.Params.t) =
  [
    ("d", Tiny_json.Number p.Dl.Params.d);
    ("k", Tiny_json.Number p.Dl.Params.k);
    ("r", growth_json p.Dl.Params.r);
    ("l", Tiny_json.Number p.Dl.Params.l);
    ("L", Tiny_json.Number p.Dl.Params.big_l);
  ]

let linear_params_json (p : Dl.Linear_model.params) =
  [
    ("d", Tiny_json.Number p.Dl.Linear_model.d);
    ("r", growth_json p.Dl.Linear_model.r);
    ("l", Tiny_json.Number p.Dl.Linear_model.l);
    ("L", Tiny_json.Number p.Dl.Linear_model.big_l);
  ]

(* A recovered checkpoint becomes a warm cache entry: params and phi
   (rebuilt bit-exactly from the stored knots) are all /predict needs,
   so a restart serves previously fitted stories without refitting.
   The record's model name picks the backend; only the two PDE models
   ever persist (closure-backed fits cannot). *)
let warm_entry (r : Store.Format.record) =
  let reject msg =
    Obs.Log.warn "store.record_rejected" ~fields:(fun () ->
        [ Obs.Log.str "id" r.Store.Format.id; Obs.Log.str "error" msg ]);
    None
  in
  match Store.Format.phi r with
  | phi -> (
    let entry ~backend ~params_json =
      Some
        {
          fe_id = r.Store.Format.id;
          fe_model = r.Store.Format.model;
          fe_backend = backend;
          fe_params_json = params_json;
          fe_training_error = r.Store.Format.training_error;
          fe_evaluations = r.Store.Format.evaluations;
          fe_link_trace = r.Store.Format.trace_id;
          fe_sols = [];
        }
    in
    match r.Store.Format.model with
    | "dl" ->
      entry
        ~backend:(Be_dl { params = r.Store.Format.params; phi })
        ~params_json:(dl_params_json r.Store.Format.params)
    | "dl-linear" ->
      let params = Dl.Linear_model.of_dl r.Store.Format.params in
      entry
        ~backend:(Be_linear { params; phi })
        ~params_json:(linear_params_json params)
    | m -> reject (Printf.sprintf "unservable stored model %S" m))
  | exception Invalid_argument msg ->
    (* CRC-valid but semantically broken knots (hand-edited store);
       serve what can be served and say why the rest was skipped *)
    reject msg

let create ?(config = default_config) () =
  if config.jobs < 1 then invalid_arg "Serve.Server.create: jobs must be >= 1";
  (* a metrics endpoint over a disabled registry would only serve zeros *)
  Obs.set_enabled true;
  let addr = Unix.inet_addr_of_string config.host in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd (Unix.ADDR_INET (addr, config.port));
     Unix.listen lfd 128;
     Unix.set_nonblock lfd
   with e ->
     Unix.close lfd;
     raise e);
  let bound_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  (* workers write the wake byte; a full pipe means a wake-up is
     already pending, so the write may simply fail with EAGAIN *)
  Unix.set_nonblock wake_w;
  let agg = Obs.Shard.create () in
  (* Recovery runs inside the aggregate shard so the store.* counters
     (replayed/dropped records, partial recoveries) show up on
     /metrics, which renders that shard. *)
  let store, warm, last_fit =
    match config.store_dir with
    | None -> (None, [], None)
    | Some dir ->
      Obs.Shard.with_shard agg @@ fun () ->
      (try
         let store = Store.open_ ~source:"serve" dir in
         let warm = List.filter_map warm_entry (Store.records store) in
         let last =
           (* default /predict target: the most recently fitted story,
              as before the restart — but only if it warmed cleanly *)
           match Store.last_id store with
           | Some id when List.exists (fun e -> e.fe_id = id) warm -> Some id
           | _ -> None
         in
         (Some store, warm, last)
       with e ->
         Unix.close lfd;
         Unix.close wake_r;
         Unix.close wake_w;
         raise e)
  in
  let cache = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace cache e.fe_id e) warm;
  (* Observation cursors: for each story the live daemon checkpointed,
     remember where ingestion left off (records are oldest-first, so a
     plain fold keeps the latest).  Handed back on the first /observe
     for the story so replay can resume past already-folded votes. *)
  let live_cursors = Hashtbl.create 8 in
  (match store with
  | None -> ()
  | Some store ->
    List.iter
      (fun (r : Store.Format.record) ->
        if r.Store.Format.story <> "" && r.Store.Format.obs_cursor > 0. then
          Hashtbl.replace live_cursors r.Store.Format.story
            (r.Store.Format.id, r.Store.Format.obs_cursor))
      (Store.records store));
  let t =
    {
      cfg = config;
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
      agg;
      agg_mutex = Mutex.create ();
      cache;
      cache_mutex = Mutex.create ();
      last_fit;
      store;
      traces = Array.make (Stdlib.max 1 config.trace_capacity) None;
      trace_next = 0;
      trace_mutex = Mutex.create ();
      otlp = None;
      live = Hashtbl.create 8;
      live_mutex = Mutex.create ();
      live_cursors;
      live_workers = false;
    }
  in
  (match config.otlp_endpoint with
  | None -> ()
  | Some endpoint ->
    let exporter =
      Otlp.create
        ~config:
          { Otlp.default_config with
            Otlp.sample_rate = config.otlp_sample_rate }
        ~endpoint
        ~metrics_provider:(fun () ->
          Mutex.lock t.agg_mutex;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.agg_mutex)
            (fun () -> Obs.Shard.with_shard t.agg Obs.Metrics.expose))
        ()
    in
    Otlp.observe_spans exporter;
    Otlp.tee_logs exporter;
    Otlp.start exporter;
    t.otlp <- Some exporter);
  t

let port t = t.bound_port
let requests_handled t = Atomic.get t.handled

let stop t =
  if not (Atomic.exchange t.stop_flag true) then
    try ignore (Unix.write t.wake_w (Bytes.of_string "!") 0 1)
    with Unix.Unix_error _ -> ()

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

(* --- /fit: request parsing and calibration --- *)

type fit_spec = {
  fs_obs : Socialnet.Density.t;
  fs_model : string;  (** Predictor registry name (default ["dl"]) *)
  fs_fit_times : float array;
  fs_starts : int;
  fs_seed : int;
  fs_story : string;  (** optional human label, lands in store records *)
  fs_scheme : Dl.Model.scheme;
  fs_nx : int;
  fs_dt : float;
  fs_init : bool;
      (** ["init": "store"] — warm-start the fit from the latest
          matching store checkpoint (dl model only) *)
}

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let json_field_list obj name conv =
  match Tiny_json.member name obj with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match Tiny_json.to_list v with
    | None -> Error (Printf.sprintf "field %S must be an array" name)
    | Some items -> (
      let rec map acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | item :: rest -> (
          match conv item with
          | Some x -> map (x :: acc) rest
          | None -> Error (Printf.sprintf "field %S has a non-numeric element" name))
      in
      map [] items))

let parse_fit_spec body =
  let* json =
    match Tiny_json.parse body with Ok j -> Ok j | Error e -> Error e
  in
  let* distances = json_field_list json "distances" Tiny_json.to_int in
  let* times = json_field_list json "times" Tiny_json.to_float in
  let* () =
    if Array.length times = 0 || times.(0) <> 1. then
      Error "times must start at 1 (the initial observation hour provides phi)"
    else Ok ()
  in
  let* density =
    match Tiny_json.member "density" json with
    | None -> Error "missing field \"density\""
    | Some v -> (
      match Tiny_json.to_list v with
      | None -> Error "field \"density\" must be an array of per-distance rows"
      | Some rows ->
        let rec map acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | row :: rest -> (
            match
              Tiny_json.to_list row
              |> Option.map (List.map Tiny_json.to_float)
            with
            | Some cells when List.for_all Option.is_some cells ->
              map (Array.of_list (List.map Option.get cells) :: acc) rest
            | _ -> Error "field \"density\" rows must be arrays of numbers")
        in
        map [] rows)
  in
  let* () =
    if Array.length density <> Array.length distances then
      Error
        (Printf.sprintf "density has %d rows but there are %d distances"
           (Array.length density) (Array.length distances))
    else if
      Array.exists (fun row -> Array.length row <> Array.length times) density
    then Error "every density row must have one value per time"
    else Ok ()
  in
  let* population =
    match Tiny_json.member "population" json with
    | None -> Ok (Array.make (Array.length distances) 100)
    | Some _ -> json_field_list json "population" Tiny_json.to_int
  in
  let* () =
    if Array.length population <> Array.length distances then
      Error "population must have one entry per distance"
    else Ok ()
  in
  let* fit_times =
    match Tiny_json.member "fit_times" json with
    | None ->
      (* default: calibrate on every posted hour past the initial one *)
      Ok
        (Array.of_list
           (List.filter (fun tm -> tm > 1.) (Array.to_list times)))
    | Some _ -> json_field_list json "fit_times" Tiny_json.to_float
  in
  let* () =
    if Array.length fit_times = 0 then
      Error "fit_times is empty (post at least one observation hour past t = 1)"
    else if
      Array.exists
        (fun ft -> not (Array.exists (fun tm -> tm = ft) times))
        fit_times
    then Error "every fit_times entry must be one of the posted times"
    else Ok ()
  in
  let int_field name default =
    match Tiny_json.member name json with
    | None -> Ok default
    | Some v -> (
      match Tiny_json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S must be an integer" name))
  in
  let* model =
    match Tiny_json.member "model" json with
    | None -> Ok "dl"
    | Some v -> (
      match Tiny_json.to_string_opt v with
      | None -> Error "field \"model\" must be a string"
      | Some m -> (
        match Dl.Predictor.find m with
        | None ->
          Error
            (Printf.sprintf "unknown model %S (registered: %s)" m
               (String.concat ", " (Dl.Predictor.names ())))
        | Some _ when m = "network" ->
          Error
            "model \"network\" is not servable over /fit (it needs graph \
             context; use the CLI)"
        | Some _ -> Ok m))
  in
  let* starts = int_field "starts" 0 in
  let* seed = int_field "seed" 7 in
  let* story =
    match Tiny_json.member "story" json with
    | None -> Ok ""
    | Some v -> (
      match Tiny_json.to_string_opt v with
      | Some s -> Ok s
      | None -> Error "field \"story\" must be a string")
  in
  (* solver options: part of the fit's identity, so requests differing
     only here must never alias to the same cached fit *)
  let* scheme =
    match Tiny_json.member "scheme" json with
    | None -> Ok Dl.Fit.default_config.Dl.Fit.solver_scheme
    | Some v -> (
      match Tiny_json.to_string_opt v with
      | None -> Error "field \"scheme\" must be a string"
      | Some s -> (
        match Store.Format.scheme_of_name s with
        | Ok sc -> Ok sc
        | Error msg -> Error msg))
  in
  let* nx = int_field "nx" Dl.Fit.default_config.Dl.Fit.solver_nx in
  let* () =
    if nx < 5 || nx > 2001 then Error "field \"nx\" must lie in 5..2001"
    else Ok ()
  in
  let* dt =
    match Tiny_json.member "dt" json with
    | None -> Ok Dl.Fit.default_config.Dl.Fit.solver_dt
    | Some v -> (
      match Tiny_json.to_float v with
      | Some d when d > 0. && d <= 1. -> Ok d
      | Some _ -> Error "field \"dt\" must lie in (0, 1]"
      | None -> Error "field \"dt\" must be a number")
  in
  let* init =
    match Tiny_json.member "init" json with
    | None -> Ok false
    | Some v -> (
      match Tiny_json.to_string_opt v with
      | Some "store" ->
        if model <> "dl" then
          Error "\"init\": \"store\" warm starts are only supported for model \"dl\""
        else Ok true
      | Some other ->
        Error (Printf.sprintf "unknown init source %S (only \"store\")" other)
      | None -> Error "field \"init\" must be a string")
  in
  Ok
    {
      fs_obs =
        { Socialnet.Density.distances; times; density; population };
      fs_model = model;
      fs_fit_times = fit_times;
      fs_starts = starts;
      fs_seed = seed;
      fs_story = story;
      fs_scheme = scheme;
      fs_nx = nx;
      fs_dt = dt;
      fs_init = init;
    }

let fit_config t spec =
  let starts =
    if spec.fs_starts <= 0 then Dl.Fit.default_config.Dl.Fit.starts
    else min spec.fs_starts t.cfg.fit_starts_cap
  in
  {
    Dl.Fit.default_config with
    Dl.Fit.fit_times = spec.fs_fit_times;
    starts;
    solver_scheme = spec.fs_scheme;
    solver_nx = spec.fs_nx;
    solver_dt = spec.fs_dt;
  }

(* The cache key covers the full request body AND the resolved solver
   configuration (scheme, grid, dt) AND the resolved model name: two
   requests — or a request and a recovered checkpoint — that differ
   only in solver config or model must never alias to the same fit.
   (The model is keyed explicitly because an omitted field and an
   explicit ["model": "dl"] resolve to the same fit but differ in the
   raw body.) *)
let fit_key ?(init_id = "") spec body =
  let solver_sig =
    Store.Format.solver_signature ~scheme:spec.fs_scheme ~nx:spec.fs_nx
      ~dt:spec.fs_dt
  in
  (* the resolved warm-init record id is part of the fit's identity:
     the same body warm-started from a different (newer) checkpoint
     must not alias to the stale cached result *)
  Digest.to_hex
    (Digest.string
       (body ^ "\x00" ^ solver_sig ^ "\x00" ^ spec.fs_model ^ "\x00" ^ init_id))

(* What persist_fit needs to write a checkpoint — only the two PDE
   backends produce one. *)
type persistable = {
  ps_phi : Dl.Initial.t;
  ps_config : Dl.Fit.config;
  ps_result : Dl.Fit.result;
}

let phi_of_spec spec =
  let obs = spec.fs_obs in
  Dl.Initial.of_observations
    ~xs:(Array.map float_of_int obs.Socialnet.Density.distances)
    ~densities:(Array.map (fun row -> row.(0)) obs.Socialnet.Density.density)

let run_fit ?init ~id ~config spec =
  let obs = spec.fs_obs in
  match spec.fs_model with
  | "dl" ->
    let phi = phi_of_spec spec in
    let rng = Numerics.Rng.create spec.fs_seed in
    let result = Dl.Fit.fit ~config ~id ?init rng obs in
    ( {
        fe_id = id;
        fe_model = "dl";
        fe_backend = Be_dl { params = result.Dl.Fit.params; phi };
        fe_params_json = dl_params_json result.Dl.Fit.params;
        fe_training_error = result.Dl.Fit.training_error;
        fe_evaluations = result.Dl.Fit.evaluations;
        fe_link_trace = "";
        fe_sols = [];
      },
      Some { ps_phi = phi; ps_config = config; ps_result = result } )
  | "dl-linear" ->
    let phi = phi_of_spec spec in
    let rng = Numerics.Rng.create spec.fs_seed in
    let lconfig =
      {
        Dl.Linear_model.default_fit_config with
        Dl.Linear_model.fit_times = config.Dl.Fit.fit_times;
        starts = config.Dl.Fit.starts;
        solver_nx = config.Dl.Fit.solver_nx;
        solver_dt = config.Dl.Fit.solver_dt;
      }
    in
    let r = Dl.Linear_model.fit ~config:lconfig rng obs in
    let params = r.Dl.Linear_model.params in
    (* checkpoint via the DL record layout (k is the to_dl placeholder);
       the stored scheme is Strang, the only scheme the linear fitter
       runs under *)
    let result =
      {
        Dl.Fit.params = Dl.Linear_model.to_dl params;
        training_error = r.Dl.Linear_model.training_error;
        evaluations = r.Dl.Linear_model.evaluations;
      }
    in
    let pconfig = { config with Dl.Fit.solver_scheme = Dl.Model.Strang } in
    ( {
        fe_id = id;
        fe_model = "dl-linear";
        fe_backend = Be_linear { params; phi };
        fe_params_json = linear_params_json params;
        fe_training_error = r.Dl.Linear_model.training_error;
        fe_evaluations = r.Dl.Linear_model.evaluations;
        fe_link_trace = "";
        fe_sols = [];
      },
      Some { ps_phi = phi; ps_config = pconfig; ps_result = result } )
  | model ->
    (* closure-backed registry models (baselines, epidemic): fit via the
       common Predictor interface; cacheable in memory, not persistable *)
    let pspec =
      Dl.Predictor.spec ~fit_times:spec.fs_fit_times ~seed:spec.fs_seed obs
    in
    let fitted = Dl.Predictor.fit model pspec in
    let distances = obs.Socialnet.Density.distances in
    let domain =
      ( float_of_int distances.(0),
        float_of_int distances.(Array.length distances - 1) )
    in
    ( {
        fe_id = id;
        fe_model = model;
        fe_backend = Be_fn { domain; predict = fitted.Dl.Predictor.predict };
        fe_params_json =
          List.map
            (fun (k, v) -> (k, Tiny_json.Number v))
            fitted.Dl.Predictor.params;
        fe_training_error = fitted.Dl.Predictor.training_error;
        fe_evaluations = fitted.Dl.Predictor.evaluations;
        fe_link_trace = "";
        fe_sols = [];
      },
      None )

let fit_json ?init_from entry ~cached =
  Tiny_json.Object
    ([
       ("fit", Tiny_json.String entry.fe_id);
       ("model", Tiny_json.String entry.fe_model);
       ("cached", Tiny_json.Bool cached);
       ("training_error", Tiny_json.Number entry.fe_training_error);
       ("evaluations", Tiny_json.Number (float_of_int entry.fe_evaluations));
       ("params", Tiny_json.Object entry.fe_params_json);
     ]
    @
    match init_from with
    | None -> []
    | Some id ->
      [
        ("init", Tiny_json.String "store");
        ("init_from", Tiny_json.String id);
      ])

let error_json status msg =
  Http.json_response status
    (Tiny_json.Object [ ("error", Tiny_json.String msg) ])

(* Persist a freshly won fit so a restarted server can warm-start it.
   A store failure must not fail the request — the fit result is
   already in memory and correct; durability degrades with a warn.
   Closure-backed models produce no [persistable] and are skipped. *)
let persist_fit ?(source = "serve") ?obs_cursor t ~id ~story ~model p =
  match t.store with
  | None -> ()
  | Some store -> (
    try
      Store.append store
        (Store.record_of_fit ~id ~story ~source ~model
           ?trace_id:(Obs.Span.trace_id ()) ?obs_cursor ~phi:p.ps_phi
           ~config:p.ps_config ~result:p.ps_result ())
    with e ->
      Obs.Log.warn "store.append_failed" ~fields:(fun () ->
          [ Obs.Log.str "id" id; Obs.Log.str "error" (Printexc.to_string e) ]))

(* Resolve an ["init": "store"] warm start: the newest store record
   for the requested model that matches the request's story label (any
   story when the request carries none).  None = cold fallback. *)
let resolve_init t spec =
  if not spec.fs_init then None
  else
    match t.store with
    | None ->
      Obs.Log.info "serve.fit_init_cold" ~fields:(fun () ->
          [ Obs.Log.str "reason" "no store configured" ]);
      None
    | Some store ->
      let pick (r : Store.Format.record) =
        r.Store.Format.model = spec.fs_model
        && (spec.fs_story = "" || r.Store.Format.story = spec.fs_story)
      in
      let chosen =
        List.fold_left
          (fun acc r -> if pick r then Some r else acc)
          None (Store.records store)
      in
      (match chosen with
      | None ->
        Obs.Log.info "serve.fit_init_cold" ~fields:(fun () ->
            [
              Obs.Log.str "reason" "no matching checkpoint";
              Obs.Log.str "story" spec.fs_story;
            ])
      | Some _ -> ());
      chosen

(* Stamp the serving span with a link back to the trace that produced
   the fit (only meaningful for store-recovered entries, whose
   originating trace lived in a previous process). *)
let link_entry entry =
  if entry.fe_link_trace <> "" then
    Obs.Span.add_attr "link.trace_id" (Obs.Log.String entry.fe_link_trace)

let handle_fit t (req : Http.request) =
  match parse_fit_spec req.Http.body with
  | Error msg -> error_json 400 msg
  | Ok spec -> (
    let init_record = resolve_init t spec in
    let init_id =
      match init_record with
      | Some r -> Some r.Store.Format.id
      | None -> None
    in
    let init =
      Option.map
        (fun (r : Store.Format.record) ->
          Dl.Fit.Init_params r.Store.Format.params)
        init_record
    in
    let id = fit_key ?init_id spec req.Http.body in
    let config = fit_config t spec in
    let cached =
      Mutex.lock t.cache_mutex;
      let entry = Hashtbl.find_opt t.cache id in
      Mutex.unlock t.cache_mutex;
      entry
    in
    match cached with
    | Some entry ->
      Obs.Metrics.incr m_cache_hits;
      link_entry entry;
      Http.json_response 200 (fit_json ?init_from:init_id entry ~cached:true)
    | None -> (
      Obs.Metrics.incr m_cache_misses;
      match run_fit ?init ~id ~config spec with
      | exception Invalid_argument msg -> error_json 422 msg
      | exception Failure msg -> error_json 422 msg
      | fresh, persistable ->
        Mutex.lock t.cache_mutex;
        (* a concurrent identical fit may have won the race; keep one *)
        let entry, won =
          match Hashtbl.find_opt t.cache id with
          | Some existing -> (existing, false)
          | None ->
            Hashtbl.replace t.cache id fresh;
            (fresh, true)
        in
        t.last_fit <- Some id;
        Mutex.unlock t.cache_mutex;
        (if won then
           match persistable with
           | Some p ->
             persist_fit t ~id ~story:spec.fs_story ~model:entry.fe_model p
           | None -> ());
        Obs.Log.info "serve.fit" ~fields:(fun () ->
            [
              Obs.Log.str "fit" id;
              Obs.Log.str "model" entry.fe_model;
              Obs.Log.float "training_error" entry.fe_training_error;
              Obs.Log.int "evaluations" entry.fe_evaluations;
              Obs.Log.bool "warm" (init <> None);
            ]);
        Http.json_response 200 (fit_json ?init_from:init_id entry ~cached:false)))

(* --- /predict --- *)

(* Fresh per-t evaluator for a PDE backend (one solve, then
   allocation-free point queries). *)
let solve_backend backend ~at =
  match backend with
  | Be_dl { params; phi } ->
    Dl.Model.predictor (Dl.Model.solve params ~phi ~times:[| at |])
  | Be_linear { params; phi } ->
    Dl.Linear_model.predictor
      (Dl.Linear_model.solve params ~phi ~times:[| at |])
  | Be_fn { predict; _ } -> predict

let solution_for t entry ~at =
  let key = Int64.bits_of_float at in
  let hit =
    Mutex.lock t.cache_mutex;
    let s = List.assoc_opt key entry.fe_sols in
    Mutex.unlock t.cache_mutex;
    s
  in
  match hit with
  | Some sol -> sol
  | None ->
    let sol = solve_backend entry.fe_backend ~at in
    Mutex.lock t.cache_mutex;
    if not (List.mem_assoc key entry.fe_sols) then begin
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      entry.fe_sols <-
        (key, sol) :: take (max_cached_solutions - 1) entry.fe_sols
    end;
    Mutex.unlock t.cache_mutex;
    sol

let domain_of entry =
  match entry.fe_backend with
  | Be_dl { params; _ } -> (params.Dl.Params.l, params.Dl.Params.big_l)
  | Be_linear { params; _ } ->
    (params.Dl.Linear_model.l, params.Dl.Linear_model.big_l)
  | Be_fn { domain; _ } -> domain

(* One validated point evaluation, shared by GET /predict and the
   POST /predict batch endpoint. *)
let predict_point t entry ~x ~tq =
  let l, big_l = domain_of entry in
  if tq < 1. then
    Error "t must be >= 1 (the model starts at the t = 1 snapshot)"
  else if x < l || x > big_l then
    Error
      (Printf.sprintf "x must lie in the fitted domain [%g, %g]" l big_l)
  else
    match entry.fe_backend with
    | Be_fn { predict; _ } -> Ok (predict ~x ~t:tq)
    | Be_dl { phi; _ } | Be_linear { phi; _ } ->
      Ok
        (if tq <= 1. +. 1e-9 then Dl.Initial.eval phi x
         else (solution_for t entry ~at:tq) ~x ~t:tq)

let lookup_entry t fit =
  Mutex.lock t.cache_mutex;
  let id = match fit with Some id -> Some id | None -> t.last_fit in
  let e = Option.bind id (Hashtbl.find_opt t.cache) in
  Mutex.unlock t.cache_mutex;
  e

let handle_predict t (req : Http.request) =
  let float_param name =
    match Http.query_param req name with
    | None -> Error (Printf.sprintf "missing query parameter %S" name)
    | Some raw -> (
      match float_of_string_opt raw with
      | Some v when Float.is_finite v -> Ok v
      | _ -> Error (Printf.sprintf "query parameter %S is not a finite number" name))
  in
  match
    let* x = float_param "x" in
    let* tq = float_param "t" in
    Ok (x, tq)
  with
  | Error msg -> error_json 400 msg
  | Ok (x, tq) -> (
    match lookup_entry t (Http.query_param req "fit") with
    | None ->
      error_json 404
        "no such fit (POST /fit first, or pass a valid fit= parameter)"
    | Some entry -> (
      link_entry entry;
      match predict_point t entry ~x ~tq with
      | Error msg -> error_json 400 msg
      | Ok density ->
        Http.json_response 200
          (Tiny_json.Object
             [
               ("fit", Tiny_json.String entry.fe_id);
               ("x", Tiny_json.Number x);
               ("t", Tiny_json.Number tq);
               ("density", Tiny_json.Number density);
             ])))

(* POST /predict: evaluate a whole batch of (x, t) points against one
   fit in a single round-trip, reusing the per-fit solution memo (one
   PDE solve per distinct t, not per point). *)
let max_batch_points = 10_000

let handle_predict_batch t (req : Http.request) =
  match
    let* json =
      match Tiny_json.parse req.Http.body with Ok j -> Ok j | Error e -> Error e
    in
    let* fit =
      match Tiny_json.member "fit" json with
      | None -> Ok None
      | Some v -> (
        match Tiny_json.to_string_opt v with
        | Some s -> Ok (Some s)
        | None -> Error "field \"fit\" must be a string")
    in
    let* points =
      match Tiny_json.member "points" json with
      | None -> Error "missing field \"points\" (an array of [x, t] pairs)"
      | Some v -> (
        match Tiny_json.to_list v with
        | None -> Error "field \"points\" must be an array of [x, t] pairs"
        | Some items ->
          let rec map acc = function
            | [] -> Ok (List.rev acc)
            | item :: rest -> (
              match
                Option.map (List.map Tiny_json.to_float)
                  (Tiny_json.to_list item)
              with
              | Some [ Some x; Some tq ]
                when Float.is_finite x && Float.is_finite tq ->
                map ((x, tq) :: acc) rest
              | _ -> Error "every point must be an [x, t] pair of finite numbers")
          in
          map [] items)
    in
    let* () =
      if points = [] then Error "field \"points\" is empty"
      else if List.length points > max_batch_points then
        Error (Printf.sprintf "at most %d points per request" max_batch_points)
      else Ok ()
    in
    Ok (fit, points)
  with
  | Error msg -> error_json 400 msg
  | Ok (fit, points) -> (
    match lookup_entry t fit with
    | None ->
      error_json 404
        "no such fit (POST /fit first, or pass a valid \"fit\" field)"
    | Some entry -> (
      link_entry entry;
      let rec eval acc = function
        | [] -> Ok (List.rev acc)
        | (x, tq) :: rest -> (
          match predict_point t entry ~x ~tq with
          | Error msg ->
            Error (Printf.sprintf "point [%g, %g]: %s" x tq msg)
          | Ok density ->
            eval
              (Tiny_json.Object
                 [
                   ("x", Tiny_json.Number x);
                   ("t", Tiny_json.Number tq);
                   ("density", Tiny_json.Number density);
                 ]
              :: acc)
              rest)
      in
      match eval [] points with
      | Error msg -> error_json 400 msg
      | Ok results ->
        Obs.Metrics.incr ~by:(List.length results) m_batch_points;
        Http.json_response 200
          (Tiny_json.Object
             [
               ("fit", Tiny_json.String entry.fe_id);
               ("count", Tiny_json.Number (float_of_int (List.length results)));
               ("results", Tiny_json.List results);
             ])))

(* --- request traces: ring buffer + /debug endpoints --- *)

(* Accept a caller-supplied X-Trace-Id only if it is a sane token;
   anything else gets a fresh id (never echo arbitrary bytes back). *)
let valid_trace_token s =
  let n = String.length s in
  n >= 1 && n <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
         | _ -> false)
       s

let push_trace t entry =
  Mutex.lock t.trace_mutex;
  let cap = Array.length t.traces in
  t.traces.(t.trace_next mod cap) <- Some entry;
  t.trace_next <- t.trace_next + 1;
  Mutex.unlock t.trace_mutex

(* Most recent completed traces, newest first, at most [n]. *)
let recent_traces t n =
  Mutex.lock t.trace_mutex;
  let cap = Array.length t.traces in
  let available = Stdlib.min t.trace_next cap in
  let take = Stdlib.min n available in
  let out = ref [] in
  for i = t.trace_next - take to t.trace_next - 1 do
    match t.traces.(i mod cap) with
    | Some e -> out := e :: !out (* newest ends up first *)
    | None -> ()
  done;
  Mutex.unlock t.trace_mutex;
  !out

let rec span_json (s : Obs.Span.t) =
  let value_json = function
    | Obs.Log.String v -> Tiny_json.String v
    | Obs.Log.Int i -> Tiny_json.Number (float_of_int i)
    | Obs.Log.Float f -> Tiny_json.Number f
    | Obs.Log.Bool b -> Tiny_json.Bool b
  in
  Tiny_json.Object
    [
      ("name", Tiny_json.String s.Obs.Span.name);
      ("span_id", Tiny_json.String s.Obs.Span.span_id);
      (* epoch ns exceed double precision; strings keep them exact *)
      ("start_unix_ns", Tiny_json.String (string_of_int s.Obs.Span.start_ns));
      ("end_unix_ns", Tiny_json.String (string_of_int s.Obs.Span.end_ns));
      ("dur_ns", Tiny_json.Number (float_of_int s.Obs.Span.dur_ns));
      ( "attrs",
        Tiny_json.Object
          (List.map (fun (k, v) -> (k, value_json v)) s.Obs.Span.attrs) );
      ("children", Tiny_json.List (List.map span_json s.Obs.Span.children));
    ]

let handle_debug_traces t (req : Http.request) =
  match
    match Http.query_param req "n" with
    | None -> Ok 32
    | Some raw -> (
      match int_of_string_opt raw with
      | Some v when v >= 0 -> Ok v
      | _ -> Error "query parameter \"n\" must be a non-negative integer")
  with
  | Error msg -> error_json 400 msg
  | Ok n ->
    let entries = recent_traces t n in
    Http.json_response 200
      (Tiny_json.Object
         [
           ("schema", Tiny_json.String "dlosn-traces/1");
           ("count", Tiny_json.Number (float_of_int (List.length entries)));
           ( "traces",
             Tiny_json.List
               (List.map
                  (fun e ->
                    Tiny_json.Object
                      [
                        ("trace_id", Tiny_json.String e.te_trace_id);
                        ("method", Tiny_json.String e.te_meth);
                        ("path", Tiny_json.String e.te_path);
                        ("status", Tiny_json.Number (float_of_int e.te_status));
                        ("dur_ns", Tiny_json.Number (float_of_int e.te_dur_ns));
                        ("root", span_json e.te_root);
                      ])
                  entries) );
         ])

let handle_debug_flame t =
  let roots = List.rev_map (fun e -> e.te_root) (recent_traces t max_int) in
  Http.response ~content_type:"text/plain; charset=utf-8" 200
    (Obs.Span.to_folded roots)

(* --- live ingestion: POST /observe, GET /live, the refit daemon --- *)

(* One parsed /observe batch.  The grid fields are only consulted on
   the first batch for a story (they define its profile); later batches
   may omit them. *)
type observe_spec = {
  ob_story : string;
  ob_votes : (int * float * int option) list;  (* voter, time, distance *)
  ob_times : float array option;
  ob_population : int array option;
  ob_max_distance : int option;
  ob_lateness : float option;
  ob_initiator : int option;
}

let parse_observe_spec body =
  let* json =
    match Tiny_json.parse body with Ok j -> Ok j | Error e -> Error e
  in
  let* story =
    match Tiny_json.member "story" json with
    | Some (Tiny_json.String s) when s <> "" -> Ok s
    | Some _ -> Error "field \"story\" must be a non-empty string"
    | None -> Error "missing field \"story\""
  in
  let* votes =
    match Tiny_json.member "votes" json with
    | None -> Error "missing field \"votes\" (an array of vote objects)"
    | Some v -> (
      match Tiny_json.to_list v with
      | None -> Error "field \"votes\" must be an array"
      | Some items ->
        let rec map acc = function
          | [] -> Ok (List.rev acc)
          | item :: rest -> (
            let time =
              Option.bind (Tiny_json.member "time" item) Tiny_json.to_float
            in
            let voter =
              Option.bind (Tiny_json.member "voter" item) Tiny_json.to_int
            in
            let distance =
              Option.bind (Tiny_json.member "distance" item) Tiny_json.to_int
            in
            match time with
            | Some tm when Float.is_finite tm && tm >= 0. ->
              map ((Option.value ~default:(-1) voter, tm, distance) :: acc) rest
            | _ ->
              Error
                "every vote needs a finite non-negative \"time\" (hours since \
                 submission)")
        in
        map [] items)
  in
  let opt_field name conv err =
    match Tiny_json.member name json with
    | None -> Ok None
    | Some v -> (
      match conv v with Some x -> Ok (Some x) | None -> Error err)
  in
  let* times =
    match Tiny_json.member "times" json with
    | None -> Ok None
    | Some _ ->
      let* ts = json_field_list json "times" Tiny_json.to_float in
      Ok (Some ts)
  in
  let* population =
    match Tiny_json.member "population" json with
    | None -> Ok None
    | Some _ ->
      let* ps = json_field_list json "population" Tiny_json.to_int in
      Ok (Some ps)
  in
  let* max_distance =
    opt_field "max_distance" Tiny_json.to_int
      "field \"max_distance\" must be an integer"
  in
  let* lateness =
    opt_field "lateness" Tiny_json.to_float
      "field \"lateness\" must be a number"
  in
  let* () =
    match lateness with
    | Some l when l < 0. -> Error "field \"lateness\" must be non-negative"
    | _ -> Ok ()
  in
  let* initiator =
    opt_field "initiator" Tiny_json.to_int
      "field \"initiator\" must be an integer (a graph user id)"
  in
  Ok
    {
      ob_story = story;
      ob_votes = votes;
      ob_times = times;
      ob_population = population;
      ob_max_distance = max_distance;
      ob_lateness = lateness;
      ob_initiator = initiator;
    }

(* First batch for a story: build its live profile (resuming from a
   persisted observation cursor when the store carries one) and, when
   the server has graph context and the batch names the initiator,
   the hop-distance resolver for distance-less votes.  Caller holds
   [live_mutex]. *)
let create_live_story t spec =
  match (spec.ob_times, spec.ob_population) with
  | None, _ | _, None ->
    Error
      (Printf.sprintf
         "unknown story %S: the first batch must carry \"times\" and \
          \"population\""
         spec.ob_story)
  | Some times, Some population -> (
    let max_distance =
      match spec.ob_max_distance with
      | Some d -> d
      | None -> Array.length population
    in
    let lateness =
      match spec.ob_lateness with
      | Some l -> l
      | None -> t.cfg.live_lateness
    in
    let recovered = Hashtbl.find_opt t.live_cursors spec.ob_story in
    let watermark = match recovered with Some (_, c) -> c | None -> 0. in
    match
      Live.Profile.create ~lateness ~watermark ~max_distance ~times
        ~population ()
    with
    | exception Invalid_argument msg -> Error msg
    | profile ->
      let assignment =
        match (spec.ob_initiator, t.cfg.graph) with
        | Some initiator, Some graph ->
          Some
            (Socialnet.Distance.friendship_hops graph
               ~story:
                 {
                   Socialnet.Types.id = 0;
                   initiator;
                   topic = 0;
                   votes = [||];
                 })
        | _ -> None
      in
      (* a recovered checkpoint keeps serving until drift re-triggers *)
      let recovered_fit =
        match recovered with
        | Some (id, _) ->
          Mutex.lock t.cache_mutex;
          let known = Hashtbl.mem t.cache id in
          Mutex.unlock t.cache_mutex;
          if known then Some id else None
        | None -> None
      in
      let ls =
        {
          ls_key = spec.ob_story;
          ls_profile = profile;
          ls_assignment = assignment;
          ls_fit = recovered_fit;
          ls_fits = (if recovered_fit <> None then 1 else 0);
          ls_refits = 0;
          ls_inflight = false;
          ls_votes_at_fit = 0;
          ls_drift = Float.nan;
          ls_gen = 0;
        }
      in
      Hashtbl.replace t.live ls.ls_key ls;
      Obs.Metrics.set m_live_stories (float_of_int (Hashtbl.length t.live));
      (match recovered with
      | Some (id, cursor) ->
        Obs.Log.info "live.resumed" ~fields:(fun () ->
            [
              Obs.Log.str "story" ls.ls_key;
              Obs.Log.str "fit" id;
              Obs.Log.float "cursor" cursor;
              Obs.Log.bool "fit_recovered" (recovered_fit <> None);
            ])
      | None -> ());
      Ok ls)

(* The refit itself: runs on a worker domain (or inline when the pool
   is unavailable), under its own metrics shard and a daemon-minted
   trace id.  Reads the live profile fresh — a task whose generation no
   longer matches the story's is stale and dropped. *)
let run_refit t task =
  let shard = Obs.Shard.create () in
  let trace_id = Obs.Span.gen_trace_id () in
  let status = ref 200 in
  let t0 = Obs.now_ns () in
  let finish () =
    (* capture the daemon trace into the ring before merging, so the
       aggregate's span list cannot grow without bound *)
    (match Obs.Shard.take_span_roots shard with
    | [] -> ()
    | roots ->
      let root = List.nth roots (List.length roots - 1) in
      push_trace t
        {
          te_trace_id = trace_id;
          te_meth = "DAEMON";
          te_path = "/live/refit";
          te_status = !status;
          te_dur_ns = Stdlib.max 0 (Obs.now_ns () - t0);
          te_root = root;
        });
    with_agg t (fun () -> Obs.Shard.merge shard)
  in
  Fun.protect ~finally:finish @@ fun () ->
  Obs.Shard.with_shard shard @@ fun () ->
  Obs.Span.set_trace_id (Some trace_id);
  Fun.protect ~finally:(fun () -> Obs.Span.set_trace_id None) @@ fun () ->
  (* snapshot everything the fit needs under the lock, then work free *)
  Mutex.lock t.live_mutex;
  let snap =
    match Hashtbl.find_opt t.live task.rf_story with
    | Some ls when ls.ls_gen = task.rf_gen ->
      Some
        ( ls,
          Live.Profile.density ls.ls_profile,
          Live.Profile.observed_times ls.ls_profile,
          Live.Profile.votes ls.ls_profile,
          Live.Profile.watermark ls.ls_profile,
          ls.ls_fit )
    | Some ls ->
      ls.ls_inflight <- false;
      None
    | None -> None
  in
  Mutex.unlock t.live_mutex;
  match snap with
  | None -> status := 410
  | Some (ls, full_obs, observed, votes, watermark, serving_fit) -> (
    let clear_inflight () =
      Mutex.lock t.live_mutex;
      if ls.ls_gen = task.rf_gen then ls.ls_inflight <- false;
      Mutex.unlock t.live_mutex
    in
    (* restrict the batch table to the hours the stream has reached *)
    let n = Array.length observed in
    let obs =
      {
        full_obs with
        Socialnet.Density.times = observed;
        density =
          Array.map
            (fun row -> Array.sub row 0 n)
            full_obs.Socialnet.Density.density;
      }
    in
    let fit_times =
      Array.of_list (List.filter (fun tm -> tm > 1.) (Array.to_list observed))
    in
    if
      n = 0
      || observed.(0) <> 1.
      || Array.length fit_times = 0
      || not
           (Array.exists
              (fun row -> row.(0) > 0.)
              obs.Socialnet.Density.density)
    then begin
      status := 422;
      clear_inflight ()
    end
    else begin
      (* warm start from the currently-serving entry when it is a PDE
         fit; the very first daemon fit for a story runs cold *)
      let init =
        match serving_fit with
        | None -> None
        | Some id -> (
          Mutex.lock t.cache_mutex;
          let e = Hashtbl.find_opt t.cache id in
          Mutex.unlock t.cache_mutex;
          match e with
          | Some { fe_backend = Be_dl { params; _ }; _ } ->
            Some (Dl.Fit.Init_params params)
          | _ -> None)
      in
      let warm = init <> None in
      let config =
        {
          Dl.Fit.default_config with
          Dl.Fit.fit_times;
          starts = (if warm then 1 else Dl.Fit.default_config.Dl.Fit.starts);
        }
      in
      let id = Printf.sprintf "live-%s-g%d" task.rf_story task.rf_gen in
      match
        Obs.Span.with_span "live.refit"
          ~attrs:(fun () ->
            [
              Obs.Log.str "story" task.rf_story;
              Obs.Log.bool "warm" warm;
              Obs.Log.int "votes" votes;
            ])
          (fun () ->
            let phi =
              Dl.Initial.of_observations
                ~xs:
                  (Array.map float_of_int obs.Socialnet.Density.distances)
                ~densities:
                  (Array.map
                     (fun row -> row.(0))
                     obs.Socialnet.Density.density)
            in
            let rng = Numerics.Rng.create t.cfg.live_seed in
            let result = Dl.Fit.fit ~config ~id ?init rng obs in
            (phi, result))
      with
      | exception e ->
        status := 500;
        Obs.Log.error "live.refit_failed" ~fields:(fun () ->
            [
              Obs.Log.str "story" task.rf_story;
              Obs.Log.str "exn" (Printexc.to_string e);
            ]);
        clear_inflight ()
      | phi, result ->
        let entry =
          {
            fe_id = id;
            fe_model = "dl";
            fe_backend = Be_dl { params = result.Dl.Fit.params; phi };
            fe_params_json = dl_params_json result.Dl.Fit.params;
            fe_training_error = result.Dl.Fit.training_error;
            fe_evaluations = result.Dl.Fit.evaluations;
            fe_link_trace = "";
            fe_sols = [];
          }
        in
        Mutex.lock t.cache_mutex;
        Hashtbl.replace t.cache id entry;
        t.last_fit <- Some id;
        Mutex.unlock t.cache_mutex;
        Mutex.lock t.live_mutex;
        if ls.ls_gen = task.rf_gen then begin
          ls.ls_fit <- Some id;
          ls.ls_fits <- ls.ls_fits + 1;
          if warm then ls.ls_refits <- ls.ls_refits + 1;
          ls.ls_votes_at_fit <- votes;
          ls.ls_inflight <- false
        end;
        Mutex.unlock t.live_mutex;
        persist_fit ~source:"live" ~obs_cursor:watermark t ~id
          ~story:task.rf_story ~model:"dl"
          { ps_phi = phi; ps_config = config; ps_result = result };
        Obs.Metrics.incr m_live_fits;
        if warm then Obs.Metrics.incr m_live_refits;
        Obs.Metrics.observe m_live_refit_ns
          (float_of_int (Stdlib.max 0 (Obs.now_ns () - t0)));
        Obs.Log.info "live.refit" ~fields:(fun () ->
            [
              Obs.Log.str "story" task.rf_story;
              Obs.Log.str "fit" id;
              Obs.Log.bool "warm" warm;
              Obs.Log.int "votes" votes;
              Obs.Log.float "watermark" watermark;
              Obs.Log.float "training_error" result.Dl.Fit.training_error;
              Obs.Log.int "evaluations" result.Dl.Fit.evaluations;
            ])
    end)

(* Hand a refit task to the worker pool, or run it right here when the
   server is single-threaded (jobs = 0 fallback). *)
let schedule_refit t task =
  if t.live_workers then begin
    Mutex.lock t.qmutex;
    Queue.push (Jb_refit task) t.queue;
    Condition.signal t.qcond;
    Mutex.unlock t.qmutex
  end
  else run_refit t task

let drift_config t =
  {
    Live.Drift.threshold = t.cfg.drift_threshold;
    min_votes = t.cfg.refit_min_votes;
    min_new_votes = t.cfg.refit_min_new_votes;
  }

let handle_observe t (req : Http.request) =
  match parse_observe_spec req.Http.body with
  | Error msg -> error_json 400 msg
  | Ok spec -> (
    Mutex.lock t.live_mutex;
    let ls_or_err =
      match Hashtbl.find_opt t.live spec.ob_story with
      | Some ls -> Ok ls
      | None -> create_live_story t spec
    in
    match ls_or_err with
    | Error msg ->
      Mutex.unlock t.live_mutex;
      error_json 400 msg
    | Ok ls -> (
      (* fold the batch in: O(1) per vote, still under the lock *)
      let added = ref 0
      and late = ref 0
      and range = ref 0
      and beyond = ref 0 in
      let fold_result =
        List.fold_left
          (fun acc (voter, time, distance) ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
              let resolved =
                match distance with
                | Some d -> Ok d
                | None -> (
                  match ls.ls_assignment with
                  | Some a when voter >= 0 && voter < Array.length a ->
                    Ok a.(voter)
                  | Some _ ->
                    Error
                      (Printf.sprintf
                         "voter %d is outside the configured graph" voter)
                  | None ->
                    Error
                      (Printf.sprintf
                         "vote for voter %d carries no \"distance\" and the \
                          story has no graph context (pass \"initiator\" on \
                          the first batch of a server started with a graph)"
                         voter))
              in
              match resolved with
              | Error msg -> Error msg
              | Ok d ->
                (match Live.Profile.add ls.ls_profile ~distance:d ~time with
                | Live.Profile.Added -> incr added
                | Live.Profile.Late -> incr late
                | Live.Profile.Out_of_range -> incr range
                | Live.Profile.Beyond_horizon -> incr beyond);
                Ok ()))
          (Ok ()) spec.ob_votes
      in
      match fold_result with
      | Error msg ->
        Mutex.unlock t.live_mutex;
        error_json 400 msg
      | Ok () ->
        (* snapshot what the drift check needs, then leave the lock *)
        let density = Live.Profile.density ls.ls_profile in
        let observed = Live.Profile.observed_times ls.ls_profile in
        let votes = Live.Profile.votes ls.ls_profile in
        let watermark = Live.Profile.watermark ls.ls_profile in
        let votes_at_fit = ls.ls_votes_at_fit in
        let serving_fit = ls.ls_fit in
        let inflight = ls.ls_inflight in
        Mutex.unlock t.live_mutex;
        Obs.Metrics.incr ~by:!added m_live_votes;
        Obs.Metrics.incr ~by:!late m_live_late;
        Obs.Metrics.incr ~by:!range m_live_range;
        Obs.Metrics.incr ~by:!beyond m_live_beyond;
        Obs.Metrics.incr m_live_batches;
        let fit_times_ready =
          Array.length observed > 0
          && observed.(0) = 1.
          && Array.exists (fun tm -> tm > 1.) observed
          (* phi is built from the t = 1 column; a profile resumed from
             a persisted cursor past t = 1 never sees those votes (they
             live only in the checkpointed fit), so it keeps serving
             the recovered fit rather than refitting on a hollow
             profile *)
          && Array.exists
               (fun row -> row.(0) > 0.)
               density.Socialnet.Density.density
        in
        (* drift: the serving fit's error against the cells the stream
           has fully reached (PDE solves run outside any lock) *)
        let drift =
          match serving_fit with
          | None -> None
          | Some id -> (
            Mutex.lock t.cache_mutex;
            let entry = Hashtbl.find_opt t.cache id in
            Mutex.unlock t.cache_mutex;
            match entry with
            | None -> None
            | Some entry ->
              let predict ~x ~t:tq =
                match predict_point t entry ~x ~tq with
                | Ok v -> v
                | Error _ -> Float.nan
              in
              Some
                (Live.Drift.relative_error ~predict ~obs:density
                   ~times:observed))
        in
        (match drift with
        | Some (d, cells) when cells > 0 -> Obs.Metrics.observe m_live_drift d
        | _ -> ());
        let want_refit =
          fit_times_ready && not inflight
          &&
          match drift with
          | None ->
            (* no serving fit yet: the initial (cold) daemon fit *)
            votes >= t.cfg.refit_min_votes
          | Some (d, cells) ->
            Live.Drift.should_refit (drift_config t) ~drift:d ~cells ~votes
              ~votes_at_fit
        in
        let scheduled =
          if not want_refit then false
          else begin
            Mutex.lock t.live_mutex;
            let task =
              if ls.ls_inflight then None
              else begin
                ls.ls_inflight <- true;
                ls.ls_gen <- ls.ls_gen + 1;
                Some { rf_story = ls.ls_key; rf_gen = ls.ls_gen }
              end
            in
            (match drift with
            | Some (d, cells) when cells > 0 -> ls.ls_drift <- d
            | _ -> ());
            Mutex.unlock t.live_mutex;
            match task with
            | Some task ->
              schedule_refit t task;
              true
            | None -> false
          end
        in
        if not scheduled then begin
          Mutex.lock t.live_mutex;
          (match drift with
          | Some (d, cells) when cells > 0 -> ls.ls_drift <- d
          | _ -> ());
          Mutex.unlock t.live_mutex
        end;
        Http.json_response 200
          (Tiny_json.Object
             [
               ("story", Tiny_json.String spec.ob_story);
               ("ingested", Tiny_json.Number (float_of_int !added));
               ("late", Tiny_json.Number (float_of_int !late));
               ("out_of_range", Tiny_json.Number (float_of_int !range));
               ("beyond_horizon", Tiny_json.Number (float_of_int !beyond));
               ("votes", Tiny_json.Number (float_of_int votes));
               ("watermark", Tiny_json.Number watermark);
               ( "drift",
                 match drift with
                 | Some (d, cells) when cells > 0 && Float.is_finite d ->
                   Tiny_json.Number d
                 | _ -> Tiny_json.Null );
               ("refit_scheduled", Tiny_json.Bool scheduled);
               ( "fit",
                 match serving_fit with
                 | Some id -> Tiny_json.String id
                 | None -> Tiny_json.Null );
             ])))

let handle_live t (req : Http.request) =
  let wanted = Http.query_param req "story" in
  Mutex.lock t.live_mutex;
  let stories =
    Hashtbl.fold
      (fun key ls acc ->
        if match wanted with Some w -> w <> key | None -> false then acc
        else
          Tiny_json.Object
            [
              ("story", Tiny_json.String key);
              ( "votes",
                Tiny_json.Number
                  (float_of_int (Live.Profile.votes ls.ls_profile)) );
              ( "watermark",
                Tiny_json.Number (Live.Profile.watermark ls.ls_profile) );
              ( "dropped_late",
                Tiny_json.Number
                  (float_of_int (Live.Profile.dropped_late ls.ls_profile)) );
              ( "dropped_range",
                Tiny_json.Number
                  (float_of_int (Live.Profile.dropped_range ls.ls_profile)) );
              ( "beyond_horizon",
                Tiny_json.Number
                  (float_of_int (Live.Profile.beyond_horizon ls.ls_profile)) );
              ("fits", Tiny_json.Number (float_of_int ls.ls_fits));
              ("refits", Tiny_json.Number (float_of_int ls.ls_refits));
              ( "drift",
                if Float.is_finite ls.ls_drift then Tiny_json.Number ls.ls_drift
                else Tiny_json.Null );
              ( "fit",
                match ls.ls_fit with
                | Some id -> Tiny_json.String id
                | None -> Tiny_json.Null );
              ("refit_inflight", Tiny_json.Bool ls.ls_inflight);
            ]
          :: acc)
      t.live []
  in
  Mutex.unlock t.live_mutex;
  Http.json_response 200
    (Tiny_json.Object
       [
         ("schema", Tiny_json.String "dlosn-live/1");
         ("count", Tiny_json.Number (float_of_int (List.length stories)));
         ("stories", Tiny_json.List stories);
       ])

(* --- routing --- *)

let handle_metrics t =
  let body = with_agg t (fun () -> Obs.Metrics.to_prometheus_string ()) in
  Http.response ~content_type:"text/plain; version=0.0.4; charset=utf-8" 200
    body

let route_label (req : Http.request) =
  match req.Http.path with
  | "/healthz" -> "healthz"
  | "/metrics" -> "metrics"
  | "/fit" -> "fit"
  | "/predict" -> "predict"
  | "/observe" -> "observe"
  | "/live" -> "live"
  | "/debug/traces" -> "debug_traces"
  | "/debug/flame" -> "debug_flame"
  | _ -> "other"

let route t (req : Http.request) =
  Obs.Metrics.incr (m_requests (route_label req));
  Obs.Metrics.set m_inflight (float_of_int (Atomic.get t.inflight));
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" -> Http.response 200 "ok\n"
  | "GET", "/metrics" -> handle_metrics t
  | "POST", "/fit" -> handle_fit t req
  | "GET", "/predict" -> handle_predict t req
  | "POST", "/predict" -> handle_predict_batch t req
  | "POST", "/observe" -> handle_observe t req
  | "GET", "/live" -> handle_live t req
  | "GET", "/debug/traces" -> handle_debug_traces t req
  | "GET", "/debug/flame" -> handle_debug_flame t
  | ( _,
      ( "/healthz" | "/metrics" | "/fit" | "/predict" | "/observe" | "/live"
      | "/debug/traces" | "/debug/flame" ) ) ->
    error_json 405 (Printf.sprintf "method %s not allowed here" req.Http.meth)
  | _ -> error_json 404 (Printf.sprintf "no such endpoint %s" req.Http.path)

(* --- request processing (worker side) --- *)

(* Everything between "a parsed request" and "serialized response
   bytes": routing, tracing, per-request metrics, the trace ring.  Runs
   on a worker domain, or inline on the event-loop thread when no
   workers are available.  Socket I/O happens elsewhere — this function
   never blocks on the network. *)
let process_request t (job : request_job) =
  let req = job.jb_req in
  let shard = Obs.Shard.create () in
  let resp =
    Fun.protect
      ~finally:(fun () ->
        Atomic.decr t.inflight;
        (* request spans were captured into the trace ring below, so the
           merge folds in metric values only — the server aggregate's
           span list cannot grow without bound *)
        with_agg t (fun () -> Obs.Shard.merge shard))
    @@ fun () ->
    Obs.Shard.with_shard shard
    @@ fun () ->
    let t0 = Obs.now_ns () in
    (* request-scoped trace id: accept a sane X-Trace-Id, else mint
       one; stamped into every log record and span from here on *)
    let trace_id =
      match Http.header req "x-trace-id" with
      | Some v when valid_trace_token v -> v
      | _ -> Obs.Span.gen_trace_id ()
    in
    Obs.Span.set_trace_id (Some trace_id);
    Fun.protect ~finally:(fun () -> Obs.Span.set_trace_id None)
    @@ fun () ->
    let resp =
      Obs.Span.with_span "serve.request"
        ~attrs:(fun () ->
          [
            Obs.Log.str "method" req.Http.meth;
            Obs.Log.str "route" (route_label req);
          ])
        (fun () ->
          match route t req with
          | resp -> resp
          | exception e ->
            Obs.Log.error "serve.handler_crashed" ~fields:(fun () ->
                [
                  Obs.Log.str "path" req.Http.path;
                  Obs.Log.str "exn" (Printexc.to_string e);
                ]);
            error_json 500 "internal error")
    in
    let resp =
      {
        resp with
        Http.extra_headers = ("X-Trace-Id", trace_id) :: resp.Http.extra_headers;
      }
    in
    Obs.Metrics.incr (m_responses resp.Http.status);
    let dur_ns = Stdlib.max 0 (Obs.now_ns () - t0) in
    Obs.Metrics.observe m_request_ns (float_of_int dur_ns);
    let rl = route_label req in
    Obs.Metrics.observe (m_route_ns rl) (float_of_int dur_ns);
    Obs.Metrics.incr (m_route_status rl resp.Http.status);
    let dur_ms = float_of_int dur_ns /. 1e6 in
    if dur_ms > t.cfg.slow_request_ms then begin
      Obs.Metrics.incr m_slow;
      Obs.Log.warn "serve.slow_request" ~fields:(fun () ->
          [
            Obs.Log.str "trace_id" trace_id;
            Obs.Log.str "route" rl;
            Obs.Log.int "status" resp.Http.status;
            Obs.Log.float "ms" dur_ms;
          ])
    end;
    (* capture the completed request trace into the ring *)
    (match Obs.Shard.take_span_roots shard with
    | [] -> ()
    | roots ->
      let root =
        match
          List.filter
            (fun (s : Obs.Span.t) -> s.Obs.Span.name = "serve.request")
            roots
        with
        | [ r ] -> r
        | _ -> List.nth roots (List.length roots - 1)
      in
      push_trace t
        {
          te_trace_id = trace_id;
          te_meth = req.Http.meth;
          te_path = req.Http.path;
          te_status = resp.Http.status;
          te_dur_ns = dur_ns;
          te_root = root;
        });
    resp
  in
  {
    dn_conn = job.jb_conn;
    dn_bytes = Http.serialize_response ~keep_alive:job.jb_keep_alive resp;
    dn_keep_alive = job.jb_keep_alive;
  }

(* --- worker pool --- *)

let wake t =
  (* EAGAIN (pipe full) means a wake-up is already pending — fine *)
  try ignore (Unix.write t.wake_w (Bytes.of_string "!") 0 1 : int)
  with Unix.Unix_error _ -> ()

let rec worker_loop t =
  Mutex.lock t.qmutex;
  while Queue.is_empty t.queue && not t.qclosed do
    Condition.wait t.qcond t.qmutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.qmutex (* closed + drained *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.qmutex;
    (match job with
    | Jb_request rj ->
      let msg = process_request t rj in
      Mutex.lock t.done_mutex;
      Queue.push msg t.done_q;
      Mutex.unlock t.done_mutex;
      wake t
    | Jb_refit task ->
      (* daemon work: no connection is waiting on a response *)
      run_refit t task);
    worker_loop t
  end

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
let event_loop t ~inline =
  let conns_by_id : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let conns_by_fd : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let draining = ref false in
  let chunk = Bytes.create 16384 in
  let now () = Unix.gettimeofday () in
  let record f = with_agg t f in
  let alive c = Hashtbl.mem conns_by_id c.cn_id in

  let close_conn c =
    if alive c then begin
      Hashtbl.remove conns_by_id c.cn_id;
      Hashtbl.remove conns_by_fd c.cn_fd;
      (try Unix.close c.cn_fd with Unix.Unix_error _ -> ());
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
      c.cn_busy <- true;
      update_deadline c;
      Atomic.incr t.inflight;
      let job =
        { jb_conn = c.cn_id; jb_req = req; jb_keep_alive = keep_alive }
      in
      if inline then complete c (process_request t job)
      else begin
        Mutex.lock t.qmutex;
        Queue.push (Jb_request job) t.queue;
        Condition.signal t.qcond;
        Mutex.unlock t.qmutex
      end
    end

  (* a worker's response arrives for this connection *)
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
      (try Unix.close fd with Unix.Unix_error _ -> ());
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
    Mutex.lock t.done_mutex;
    Queue.transfer t.done_q msgs;
    Mutex.unlock t.done_mutex;
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
      (try Unix.close t.lfd with Unix.Unix_error _ -> ());
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
  Mutex.lock t.qmutex;
  t.qclosed <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex

let run t =
  (* a peer closing mid-write must not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let jobs =
    if Parallel.Pool.domains_available then Stdlib.max 1 t.cfg.jobs else 0
  in
  t.live_workers <- jobs > 0;
  Obs.Log.info "serve.listening" ~fields:(fun () ->
      [
        Obs.Log.str "host" t.cfg.host;
        Obs.Log.int "port" t.bound_port;
        Obs.Log.int "jobs" (Stdlib.max 1 jobs);
      ]);
  if jobs = 0 then event_loop t ~inline:true
  else
    Parallel.Pool.run_workers ~jobs:(jobs + 1) (fun k ->
        if k = 0 then event_loop t ~inline:false else worker_loop t);
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Option.iter Store.close t.store;
  (* final flush so short-lived servers still deliver their telemetry *)
  Option.iter Otlp.shutdown t.otlp;
  (* fold the server's aggregate into the caller's context so a final
     metrics dump (--metrics-out, bench) sees every serve.* series *)
  Mutex.lock t.agg_mutex;
  Obs.Shard.merge t.agg;
  Mutex.unlock t.agg_mutex;
  Obs.Log.info "serve.stopped" ~fields:(fun () ->
      [ Obs.Log.int "requests_handled" (Atomic.get t.handled) ])
