(* The dlosn prediction-serving application: the request handlers and
   the state they share.  Sockets, connections and workers belong to
   {!Transport}.  See server.mli for the endpoints and transport.mli
   for the concurrency model. *)

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

let max_cached_solutions = 64

(* Latest model hour a request may ask for.  A solve's cost grows
   linearly with its target hour, so without a cap one /predict or
   /observe could hold a worker for days; 200 h is four times the
   paper's 50-hour window. *)
let max_hours = 200.

(* Cells one fitting solve may step (nx × time steps): as many as a
   serving solve to [max_hours] on the model's default grid, 101 cells
   at dt = 0.01 h over 199 h.  Every objective evaluation of a /fit is
   one such solve, so without a bound "dt": 1e-300 never finishes. *)
let max_fit_cells = 101 * 19_900

(* What a cached fit can serve predictions from.  The two PDE backends
   keep their parameters and phi so solutions can be (re)computed per
   requested t and the entry can round-trip through the store; other
   registry models (baselines, epidemic) are closures fitted in memory
   — cacheable, not persistable. *)
type backend =
  | Be_dl of { params : Dl.Params.t; phi : Dl.Initial.t }
  | Be_linear of { params : Dl.Linear_model.params; phi : Dl.Initial.t }
  | Be_fn of {
      domain : float * float;
      predict : x:float -> t:float -> float;
      params : (string * float) list;  (* rendered for /fit *)
    }

type fit_entry = {
  fe_id : string;
  fe_model : string;  (* Predictor registry name *)
  fe_backend : backend;
  fe_training_error : float;
  fe_evaluations : int;
  fe_link_trace : string;
      (* for store-recovered entries: the trace id of the run that
         produced the fit, stamped onto serving spans as a span link *)
  mutable fe_sols : (float * (x:float -> t:float -> float)) list;
      (* memoized per-t evaluators, newest first (PDE backends only) *)
  mutable fe_hours : float array array;
      (* PDE backends: the serving grid's state at hours 2, 3, ..., as
         far as a serving solve has reached — the checkpoints a memo
         miss resumes from *)
}

let fit_entry ?(link_trace = "") ~id ~model ~error ~evaluations backend =
  {
    fe_id = id;
    fe_model = model;
    fe_backend = backend;
    fe_training_error = error;
    fe_evaluations = evaluations;
    fe_link_trace = link_trace;
    fe_sols = [];
    fe_hours = [||];
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

type app = {
  cfg : config;
  submit : (unit -> unit) -> unit;  (* queue background work (refits) *)
  inflight : unit -> int;  (* requests with the workers *)
  agg : Obs.Shard.t;
  agg_mutex : Mutex.t;
  cache : (string, fit_entry) Hashtbl.t;
  cache_mutex : Mutex.t;
  mutable last_fit : string option;
  store : Store.t option;
  traces : trace_entry option array; (* ring, trace_capacity slots *)
  mutable trace_next : int; (* monotonic write position *)
  trace_mutex : Mutex.t;
  otlp : Otlp.t option;
  live : (string, live_story) Hashtbl.t;
  live_mutex : Mutex.t;
  live_cursors : (string, string * float) Hashtbl.t;
      (* story -> (record id, obs cursor) recovered from the store:
         where live ingestion left off before the restart *)
}

type t = { app : app; tr : Transport.t }

(* --- serve.* metrics (handles are idempotent to register) --- *)

let m_request_ns = Obs.Metrics.histogram "serve.request_ns"
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

(* Run [f] with the server-wide aggregate context installed, under its
   lock.  Used to fold request shards in, to record event-loop events,
   and to render /metrics — never concurrently, so never racily. *)
let with_agg t f =
  Mutex.protect t.agg_mutex (fun () -> Obs.Shard.with_shard t.agg f)

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

(* A fit's parameters as /fit renders them. *)
let params_json = function
  | Be_dl { params = p; _ } ->
    [
      ("d", Tiny_json.Number p.Dl.Params.d);
      ("k", Tiny_json.Number p.Dl.Params.k);
      ("r", growth_json p.Dl.Params.r);
      ("l", Tiny_json.Number p.Dl.Params.l);
      ("L", Tiny_json.Number p.Dl.Params.big_l);
    ]
  | Be_linear { params = p; _ } ->
    [
      ("d", Tiny_json.Number p.Dl.Linear_model.d);
      ("r", growth_json p.Dl.Linear_model.r);
      ("l", Tiny_json.Number p.Dl.Linear_model.l);
      ("L", Tiny_json.Number p.Dl.Linear_model.big_l);
    ]
  | Be_fn { params; _ } ->
    List.map (fun (k, v) -> (k, Tiny_json.Number v)) params

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
    let entry backend =
      Some
        (fit_entry ~link_trace:r.Store.Format.trace_id ~id:r.Store.Format.id
           ~model:r.Store.Format.model ~error:r.Store.Format.training_error
           ~evaluations:r.Store.Format.evaluations backend)
    in
    match r.Store.Format.model with
    | "dl" -> entry (Be_dl { params = r.Store.Format.params; phi })
    | "dl-linear" ->
      entry (Be_linear { params = Dl.Linear_model.of_dl r.Store.Format.params; phi })
    | m -> reject (Printf.sprintf "unservable stored model %S" m))
  | exception Invalid_argument msg ->
    (* CRC-valid but semantically broken knots (hand-edited store);
       serve what can be served and say why the rest was skipped *)
    reject msg

let make_app ~submit ~inflight config =
  (* a metrics endpoint over a disabled registry would only serve zeros *)
  Obs.set_enabled true;
  let agg = Obs.Shard.create () and agg_mutex = Mutex.create () in
  (* Recovery runs inside the aggregate shard so the store.* counters
     (replayed/dropped records, partial recoveries) show up on
     /metrics, which renders that shard. *)
  let store, warm, last_fit =
    match config.store_dir with
    | None -> (None, [], None)
    | Some dir ->
      Obs.Shard.with_shard agg @@ fun () ->
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
  in
  let cache = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace cache e.fe_id e) warm;
  (* Observation cursors: for each story the live daemon checkpointed,
     remember where ingestion left off (records are oldest-first, so a
     plain fold keeps the latest).  Handed back on the first /observe
     for the story so replay can resume past already-folded votes. *)
  let live_cursors = Hashtbl.create 8 in
  Option.iter
    (fun store ->
      List.iter
        (fun (r : Store.Format.record) ->
          if r.Store.Format.story <> "" && r.Store.Format.obs_cursor > 0. then
            Hashtbl.replace live_cursors r.Store.Format.story
              (r.Store.Format.id, r.Store.Format.obs_cursor))
        (Store.records store))
    store;
  let otlp =
    Option.map
      (fun endpoint ->
        let exporter =
          Otlp.create
            ~config:
              { Otlp.default_config with
                Otlp.sample_rate = config.otlp_sample_rate }
            ~endpoint
            ~metrics_provider:(fun () ->
              Mutex.protect agg_mutex (fun () ->
                  Obs.Shard.with_shard agg Obs.Metrics.expose))
            ()
        in
        Otlp.observe_spans exporter;
        Otlp.tee_logs exporter;
        Otlp.start exporter;
        exporter)
      config.otlp_endpoint
  in
  {
    cfg = config;
    submit;
    inflight;
    agg;
    agg_mutex;
    cache;
    cache_mutex = Mutex.create ();
    last_fit;
    store;
    traces = Array.make (Stdlib.max 1 config.trace_capacity) None;
    trace_next = 0;
    trace_mutex = Mutex.create ();
    otlp;
    live = Hashtbl.create 8;
    live_mutex = Mutex.create ();
    live_cursors;
  }

let app config = make_app ~submit:(fun f -> f ()) ~inflight:(fun () -> 0) config

let create ?(config = default_config) () =
  if config.jobs < 1 then invalid_arg "Serve.Server.create: jobs must be >= 1";
  let tr =
    Transport.create
      {
        Transport.host = config.host;
        port = config.port;
        jobs = config.jobs;
        max_conns = config.max_conns;
        read_timeout = config.read_timeout;
        write_timeout = config.write_timeout;
        idle_timeout = config.idle_timeout;
        max_body = config.max_body;
      }
  in
  match
    make_app config ~submit:(Transport.submit tr) ~inflight:(fun () ->
        Transport.inflight tr)
  with
  | app -> { app; tr }
  | exception e ->
    Transport.close tr;
    raise e

let port t = Transport.port t.tr
let requests_handled t = Transport.handled t.tr
let stop t = Transport.stop t.tr

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

(* --- request bodies --- *)

let ( let* ) = Result.bind

(* Field readers over a parsed JSON body.  A reader [conv] takes the
   field's name and value and returns the typed value or an error
   message; [required] fails on an absent field ("missing field NAME",
   then [hint]), [optional] reads it as [None] and [defaulted] as its
   default. *)
let required ?(hint = "") json name conv =
  match Tiny_json.member name json with
  | None -> Error (Printf.sprintf "missing field %S%s" name hint)
  | Some v -> conv name v

let optional json name conv =
  match Tiny_json.member name json with
  | None -> Ok None
  | Some v -> Result.map Option.some (conv name v)

let defaulted default json name conv =
  Result.map (Option.value ~default) (optional json name conv)

(* A scalar [to_x] reads, or "field NAME must be [kind]". *)
let scalar kind to_x name v =
  match to_x v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S must be %s" name kind)

let string_field = scalar "a string" Tiny_json.to_string_opt
let int_field = scalar "an integer" Tiny_json.to_int
let number_field = scalar "a number" Tiny_json.to_float

(* An array whose every element [item] reads.  [not_array] and [bad]
   replace the messages for a value that is no array and for an element
   [item] rejects, which by default name a numeric array. *)
let array ?not_array ?bad item name v =
  let fail msg what =
    Error
      (match msg with
      | Some m -> m
      | None -> Printf.sprintf "field %S %s" name what)
  in
  match Tiny_json.to_list v with
  | None -> fail not_array "must be an array"
  | Some items ->
    let rec map acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | x :: rest -> (
        match item x with
        | Some y -> map (y :: acc) rest
        | None -> fail bad "has a non-numeric element")
    in
    map [] items

(* "field NAME must be strictly increasing" unless [a] is. *)
let strictly_increasing name a =
  let rec from i = i >= Array.length a || (a.(i - 1) < a.(i) && from (i + 1)) in
  if from 1 then Ok ()
  else Error (Printf.sprintf "field %S must be strictly increasing" name)

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

let parse_fit_spec body =
  let* json = Tiny_json.parse body in
  let* distances = required json "distances" (array Tiny_json.to_int) in
  (* each label names one group: a lookup by label (Density.at) reads
     a repeated label's first group for both *)
  let* () = strictly_increasing "distances" distances in
  let* times = required json "times" (array Tiny_json.to_float) in
  let* () =
    if Array.length times = 0 || times.(0) <> 1. then
      Error "times must start at 1 (the initial observation hour provides phi)"
    else if Array.exists (fun tm -> tm > max_hours) times then
      Error (Printf.sprintf "field \"times\" must not pass t = %g hours" max_hours)
    else strictly_increasing "times" times
  in
  let* density =
    required json "density"
      (array ~not_array:"field \"density\" must be an array of per-distance rows"
         ~bad:"field \"density\" rows must be arrays of numbers" (fun row ->
           Result.to_option (array Tiny_json.to_float "density" row)))
  in
  let* () =
    if Array.length density <> Array.length distances then
      Error
        (Printf.sprintf "density has %d rows but there are %d distances"
           (Array.length density) (Array.length distances))
    else if
      Array.exists (fun row -> Array.length row <> Array.length times) density
    then Error "every density row must have one value per time"
    else if Array.exists (Array.exists (fun v -> not (Float.is_finite v))) density
    then Error "field \"density\" values must be finite"
    else Ok ()
  in
  let* population =
    defaulted
      (Array.make (Array.length distances) 100)
      json "population" (array Tiny_json.to_int)
  in
  let* () =
    if Array.length population <> Array.length distances then
      Error "population must have one entry per distance"
    else Ok ()
  in
  let* fit_times =
    (* default: calibrate on every posted hour past the initial one *)
    defaulted
      (Array.of_list (List.filter (fun tm -> tm > 1.) (Array.to_list times)))
      json "fit_times" (array Tiny_json.to_float)
  in
  let* () =
    if Array.length fit_times = 0 then
      Error "fit_times is empty (post at least one observation hour past t = 1)"
    else if
      Array.exists
        (fun ft -> not (Array.exists (fun tm -> tm = ft) times))
        fit_times
    then Error "every fit_times entry must be one of the posted times"
    else strictly_increasing "fit_times" fit_times
  in
  let* model =
    let* m = defaulted "dl" json "model" string_field in
    match Dl.Predictor.find m with
    | None ->
      Error
        (Printf.sprintf "unknown model %S (registered: %s)" m
           (String.concat ", " (Dl.Predictor.names ())))
    | Some _ when m = "network" ->
      Error
        "model \"network\" is not servable over /fit (it needs graph \
         context; use the CLI)"
    | Some _ -> Ok m
  in
  let* starts = defaulted 0 json "starts" int_field in
  let* seed = defaulted 7 json "seed" int_field in
  let* story = defaulted "" json "story" string_field in
  (* solver options: part of the fit's identity, so requests differing
     only here must never alias to the same cached fit *)
  let* scheme = optional json "scheme" string_field in
  let* scheme =
    match scheme with
    | None -> Ok Dl.Fit.default_config.Dl.Fit.solver_scheme
    | Some s -> Store.Format.scheme_of_name s
  in
  let* nx = defaulted Dl.Fit.default_config.Dl.Fit.solver_nx json "nx" int_field in
  let* () =
    if nx < 5 || nx > 2001 then Error "field \"nx\" must lie in 5..2001"
    else Ok ()
  in
  let* dt = defaulted Dl.Fit.default_config.Dl.Fit.solver_dt json "dt" number_field in
  let* () =
    if dt > 0. && dt <= 1. then Ok () else Error "field \"dt\" must lie in (0, 1]"
  in
  let* () =
    let last = Array.fold_left Float.max 1. fit_times in
    let cells = float_of_int nx *. Float.ceil ((last -. 1.) /. dt) in
    if cells > float_of_int max_fit_cells then
      Error
        (Printf.sprintf
           "a fitting solve of nx = %d to t = %g h at dt = %g steps %.3g \
            cells, past the budget of %d (lower nx or raise dt)"
           nx last dt cells max_fit_cells)
    else Ok ()
  in
  let* init = optional json "init" string_field in
  let* init =
    match init with
    | None -> Ok false
    | Some "store" when model <> "dl" ->
      Error "\"init\": \"store\" warm starts are only supported for model \"dl\""
    | Some "store" -> Ok true
    | Some other ->
      Error (Printf.sprintf "unknown init source %S (only \"store\")" other)
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

(* What a store checkpoint needs — only the two PDE backends produce
   one. *)
type persistable = {
  ps_phi : Dl.Initial.t;
  ps_config : Dl.Fit.config;
  ps_result : Dl.Fit.result;
}

let run_fit ?init ~id ~config spec =
  let obs = spec.fs_obs in
  match spec.fs_model with
  | "dl" ->
    let phi = Dl.Fit.phi_of_obs obs in
    let rng = Numerics.Rng.create spec.fs_seed in
    let result = Dl.Fit.fit ~config ~id ?init ~phi rng obs in
    ( fit_entry ~id ~model:"dl" ~error:result.Dl.Fit.training_error
        ~evaluations:result.Dl.Fit.evaluations
        (Be_dl { params = result.Dl.Fit.params; phi }),
      Some { ps_phi = phi; ps_config = config; ps_result = result } )
  | "dl-linear" ->
    let phi = Dl.Fit.phi_of_obs obs in
    let rng = Numerics.Rng.create spec.fs_seed in
    let lconfig =
      {
        Dl.Linear_model.default_fit_config with
        Dl.Linear_model.fit_times = config.Dl.Fit.fit_times;
        (* an absent [starts] keeps the linear fitter's own default: its
           random restarts are not the dl cold path's polishes *)
        starts =
          (if spec.fs_starts <= 0 then
             Dl.Linear_model.default_fit_config.Dl.Linear_model.starts
           else config.Dl.Fit.starts);
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
    let pconfig =
      {
        config with
        Dl.Fit.solver_scheme = Dl.Model.Strang;
        starts = lconfig.Dl.Linear_model.starts;
      }
    in
    ( fit_entry ~id ~model:"dl-linear" ~error:r.Dl.Linear_model.training_error
        ~evaluations:r.Dl.Linear_model.evaluations
        (Be_linear { params; phi }),
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
    ( fit_entry ~id ~model ~error:fitted.Dl.Predictor.training_error
        ~evaluations:fitted.Dl.Predictor.evaluations
        (Be_fn
           {
             domain;
             predict = fitted.Dl.Predictor.predict;
             params = fitted.Dl.Predictor.params;
           }),
      None )

let fit_json ?init_from entry ~cached =
  Tiny_json.Object
    ([
       ("fit", Tiny_json.String entry.fe_id);
       ("model", Tiny_json.String entry.fe_model);
       ("cached", Tiny_json.Bool cached);
       ("training_error", Tiny_json.Number entry.fe_training_error);
       ("evaluations", Tiny_json.Number (float_of_int entry.fe_evaluations));
       ("params", Tiny_json.Object (params_json entry.fe_backend));
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

let find_fit t id = Mutex.protect t.cache_mutex (fun () -> Hashtbl.find_opt t.cache id)

(* The cached fit [fit] names, or the latest one. *)
let lookup_entry t fit =
  Mutex.protect t.cache_mutex (fun () ->
      let id = match fit with Some _ -> fit | None -> t.last_fit in
      Option.bind id (Hashtbl.find_opt t.cache))

(* Cache a fresh fit as the latest one, then persist it so a restarted
   server can warm-start it.  A /fit id digests its input, so an entry
   already cached under it is the same fit, from a concurrent identical
   request that won the race: it is kept, and was persisted by that
   request.  A refit id names a generation, which after a restart may
   name an older recovered fit, so a refit passes [replace].  A store
   failure must not fail the request — the fit is already in memory
   and correct; durability degrades with a warn.  Closure-backed models
   have no [persistable] and are not stored. *)
let install_fit ?(replace = false) ?(source = "serve") ?obs_cursor t ~story
    entry persistable =
  let kept =
    Mutex.protect t.cache_mutex (fun () ->
        let kept =
          match Hashtbl.find_opt t.cache entry.fe_id with
          | Some existing when not replace -> existing
          | _ ->
            Hashtbl.replace t.cache entry.fe_id entry;
            entry
        in
        t.last_fit <- Some entry.fe_id;
        kept)
  in
  (match (t.store, persistable) with
  | Some store, Some p when kept == entry -> (
    try
      Store.append store
        (Store.record_of_fit ~id:entry.fe_id ~story ~source ~model:entry.fe_model
           ?trace_id:(Obs.Span.trace_id ()) ?obs_cursor ~phi:p.ps_phi
           ~config:p.ps_config ~result:p.ps_result ())
    with e ->
      Obs.Log.warn "store.append_failed" ~fields:(fun () ->
          [
            Obs.Log.str "id" entry.fe_id;
            Obs.Log.str "error" (Printexc.to_string e);
          ]))
  | _ -> ());
  kept

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
      Option.map (fun (r : Store.Format.record) -> r.Store.Format.id) init_record
    in
    let init =
      Option.map
        (fun (r : Store.Format.record) ->
          Dl.Fit.Init_params r.Store.Format.params)
        init_record
    in
    let id = fit_key ?init_id spec req.Http.body in
    let config = fit_config t spec in
    match find_fit t id with
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
        let entry = install_fit t ~story:spec.fs_story fresh persistable in
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

(* A PDE backend's serving solve on the model's default grid (nx 101,
   dt 0.01 h, Strang), from phi at t = 1 or from the state [from]
   recorded at an earlier hour. *)
let march backend from ~times =
  match backend with
  | Be_dl { params; phi } -> (Dl.Model.solve ?from params ~phi ~times).Dl.Model.pde
  | Be_linear { params; phi } ->
    (Dl.Linear_model.solve ?from params ~phi ~times).Dl.Linear_model.pde
  | Be_fn _ -> invalid_arg "Server.march: not a PDE backend"

(* The state at whole hour [h] >= 2.  A new hour marches the
   checkpoints on from the last one reached, recording every hour in
   between.  The solve runs outside the lock: a concurrent march over
   the same hours computes the same bits, and the first to finish
   keeps its arrays. *)
let checkpoint t entry h =
  let hours = Mutex.protect t.cache_mutex (fun () -> entry.fe_hours) in
  let reached = Array.length hours + 1 in
  if h <= reached then hours.(h - 2)
  else begin
    let from =
      if reached < 2 then None
      else Some (float_of_int reached, hours.(reached - 2))
    in
    let sol =
      march entry.fe_backend from
        ~times:(Array.init (h - reached) (fun k -> float_of_int (reached + 1 + k)))
    in
    (* [values.(k)] is the state at hour [reached + k] *)
    Mutex.protect t.cache_mutex (fun () ->
        let have = Array.length entry.fe_hours + 1 in
        if have < h then
          entry.fe_hours <-
            Array.append entry.fe_hours
              (Array.sub sol.Numerics.Pde.values (have + 1 - reached) (h - have));
        entry.fe_hours.(h - 2))
  end

(* A fresh evaluator for hour [at] of a PDE backend (a memo miss).  The
   served value is that of the serving solve with snapshots at every
   whole hour 2, 3, ..., floor(at), then at [at]; it resumes from the
   checkpoint at floor(at), so it costs at most 100 steps once the
   checkpoints reach that hour.  Below t = 2 it is the plain solve to
   [at]. *)
let solve_at t entry ~at =
  let h = int_of_float at in
  let from = if h < 2 then None else Some (float_of_int h, checkpoint t entry h) in
  Numerics.Pde.evaluator (march entry.fe_backend from ~times:[| at |])

let rec memo_find at = function
  | [] -> None
  | (k, sol) :: rest -> if Float.equal k at then Some sol else memo_find at rest

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* The evaluators for the distinct hours [ats] of one request: one memo
   lookup per hour, all under one lock.  Misses are solved outside it
   and then memoized in [ats] order, each evicting the oldest entry
   once the memo holds [max_cached_solutions].  t = 1 (to 1e-9) is phi
   itself; closure-backed fits have no memo. *)
let evaluators t entry ats =
  match entry.fe_backend with
  | Be_fn { predict; _ } -> Array.map (fun _ -> predict) ats
  | Be_dl { phi; _ } | Be_linear { phi; _ } ->
    let initial ~x ~t:_ = Dl.Initial.eval phi x in
    let known =
      Mutex.protect t.cache_mutex (fun () ->
          Array.map
            (fun at -> if at <= 1. +. 1e-9 then Some initial else memo_find at entry.fe_sols)
            ats)
    in
    let misses = ref [] in
    let sols =
      Array.mapi
        (fun i known ->
          match known with
          | Some sol -> sol
          | None ->
            let sol = solve_at t entry ~at:ats.(i) in
            misses := (ats.(i), sol) :: !misses;
            sol)
        known
    in
    if !misses <> [] then
      Mutex.protect t.cache_mutex (fun () ->
          List.iter
            (fun (at, sol) ->
              if Option.is_none (memo_find at entry.fe_sols) then
                entry.fe_sols <- (at, sol) :: take (max_cached_solutions - 1) entry.fe_sols)
            (List.rev !misses));
    sols

let domain_of entry =
  match entry.fe_backend with
  | Be_dl { params; _ } -> (params.Dl.Params.l, params.Dl.Params.big_l)
  | Be_linear { params; _ } ->
    (params.Dl.Linear_model.l, params.Dl.Linear_model.big_l)
  | Be_fn { domain; _ } -> domain

(* One point's validation, shared by GET /predict, the POST /predict
   batch and drift. *)
let check_point entry ~x ~tq =
  let l, big_l = domain_of entry in
  if tq < 1. then
    Error "t must be >= 1 (the model starts at the t = 1 snapshot)"
  else if tq > max_hours then
    Error
      (Printf.sprintf "t must be <= %g (the serving horizon, in hours)"
         max_hours)
  else if x < l || x > big_l then
    Error
      (Printf.sprintf "x must lie in the fitted domain [%g, %g]" l big_l)
  else Ok ()

(* One validated point evaluation. *)
let predict_point t entry ~x ~tq =
  match check_point entry ~x ~tq with
  | Error _ as e -> e
  | Ok () -> Ok ((evaluators t entry [| tq |]).(0) ~x ~t:tq)

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
   fit in a single round-trip: one memo lookup per distinct t, and at
   most one solve each (see [evaluators]). *)
let max_batch_points = 10_000

(* The batch's distinct hours in order of first appearance, and each
   point's index among them; past the memo's size a batch would evict
   its own solutions. *)
let distinct_hours points =
  let n = Array.length points in
  let hours = Array.make max_cached_solutions 0. and slots = Array.make n 0 in
  let rec scan i nh =
    if i = n then Ok (Array.sub hours 0 nh, slots)
    else begin
      let at = snd points.(i) in
      let rec find k = if k = nh || Float.equal hours.(k) at then k else find (k + 1) in
      let k = find 0 in
      if k < nh then begin
        slots.(i) <- k;
        scan (i + 1) nh
      end
      else if nh = max_cached_solutions then
        Error
          (Printf.sprintf "at most %d distinct t values per request"
             max_cached_solutions)
      else begin
        hours.(nh) <- at;
        slots.(i) <- nh;
        scan (i + 1) (nh + 1)
      end
    end
  in
  scan 0 0

let handle_predict_batch t (req : Http.request) =
  match
    let* json = Tiny_json.parse req.Http.body in
    let* fit = optional json "fit" string_field in
    let* points =
      required ~hint:" (an array of [x, t] pairs)" json "points"
        (array ~not_array:"field \"points\" must be an array of [x, t] pairs"
           ~bad:"every point must be an [x, t] pair of finite numbers"
           (fun item ->
             match
               Option.map (List.map Tiny_json.to_float) (Tiny_json.to_list item)
             with
             | Some [ Some x; Some tq ]
               when Float.is_finite x && Float.is_finite tq ->
               Some (x, tq)
             | _ -> None))
    in
    let* () =
      if Array.length points = 0 then Error "field \"points\" is empty"
      else if Array.length points > max_batch_points then
        Error (Printf.sprintf "at most %d points per request" max_batch_points)
      else Ok ()
    in
    let* hours, slots = distinct_hours points in
    Ok (fit, points, hours, slots)
  with
  | Error msg -> error_json 400 msg
  | Ok (fit, points, hours, slots) -> (
    match lookup_entry t fit with
    | None ->
      error_json 404
        "no such fit (POST /fit first, or pass a valid \"fit\" field)"
    | Some entry -> (
      link_entry entry;
      (* every point is checked before any solve; the first bad one
         names itself *)
      let rec check i =
        if i = Array.length points then Ok ()
        else begin
          let x, tq = points.(i) in
          match check_point entry ~x ~tq with
          | Error msg -> Error (Printf.sprintf "point [%g, %g]: %s" x tq msg)
          | Ok () -> check (i + 1)
        end
      in
      match check 0 with
      | Error msg -> error_json 400 msg
      | Ok () ->
        let sols = evaluators t entry hours in
        let results =
          Array.to_list
            (Array.mapi
               (fun i (x, tq) ->
                 Tiny_json.Object
                   [
                     ("x", Tiny_json.Number x);
                     ("t", Tiny_json.Number tq);
                     ("density", Tiny_json.Number (sols.(slots.(i)) ~x ~t:tq));
                   ])
               points)
        in
        Obs.Metrics.incr ~by:(Array.length points) m_batch_points;
        Http.json_response 200
          (Tiny_json.Object
             [
               ("fit", Tiny_json.String entry.fe_id);
               ("count", Tiny_json.Number (float_of_int (Array.length points)));
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
  Mutex.protect t.trace_mutex (fun () ->
      let cap = Array.length t.traces in
      t.traces.(t.trace_next mod cap) <- Some entry;
      t.trace_next <- t.trace_next + 1)

(* Most recent completed traces, newest first, at most [n]. *)
let recent_traces t n =
  Mutex.protect t.trace_mutex (fun () ->
      let cap = Array.length t.traces in
      let available = Stdlib.min t.trace_next cap in
      let take = Stdlib.min n available in
      let out = ref [] in
      for i = t.trace_next - take to t.trace_next - 1 do
        match t.traces.(i mod cap) with
        | Some e -> out := e :: !out (* newest ends up first *)
        | None -> ()
      done;
      !out)

(* Run [f status] in a private metrics shard under [trace_id].  When it
   returns or raises, its span tree goes into the trace ring, recorded
   with [meth], [path] and the [status] it set, and its metric values
   merge into the aggregate — without the spans, so the aggregate's
   span list cannot grow without bound.  Requests and live refits both
   run this way. *)
let traced t ~trace_id ~meth ~path f =
  let shard = Obs.Shard.create () in
  let t0 = Obs.now_ns () in
  let status = ref 200 in
  let finish () =
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
          te_meth = meth;
          te_path = path;
          te_status = !status;
          te_dur_ns = Stdlib.max 0 (Obs.now_ns () - t0);
          te_root = root;
        });
    with_agg t (fun () -> Obs.Shard.merge shard)
  in
  Fun.protect ~finally:finish @@ fun () ->
  Obs.Shard.with_shard shard @@ fun () ->
  Obs.Span.with_trace_id trace_id (fun () -> f status)

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
  ob_votes : (int * float * int option) array;  (* voter, time, distance *)
  ob_times : float array option;
  ob_population : int array option;
  ob_max_distance : int option;
  ob_lateness : float option;
  ob_initiator : int option;
}

let parse_observe_spec body =
  let* json = Tiny_json.parse body in
  let* story =
    required json "story"
      (scalar "a non-empty string" (function
        | Tiny_json.String s when s <> "" -> Some s
        | _ -> None))
  in
  let* votes =
    required ~hint:" (an array of vote objects)" json "votes"
      (array
         ~bad:
           "every vote needs a finite non-negative \"time\" (hours since \
            submission)"
         (fun item ->
           let field name conv = Option.bind (Tiny_json.member name item) conv in
           match field "time" Tiny_json.to_float with
           | Some tm when Float.is_finite tm && tm >= 0. ->
             Some
               ( Option.value ~default:(-1) (field "voter" Tiny_json.to_int),
                 tm,
                 field "distance" Tiny_json.to_int )
           | _ -> None))
  in
  let* times = optional json "times" (array Tiny_json.to_float) in
  let* () =
    match times with
    (* the drift check solves at every time: bounded like /predict *)
    | Some ts when Array.length ts > max_cached_solutions ->
      Error
        (Printf.sprintf "field \"times\" holds at most %d hours"
           max_cached_solutions)
    | Some ts when Array.exists (fun tm -> tm > max_hours) ts ->
      Error
        (Printf.sprintf "field \"times\" must not pass t = %g hours" max_hours)
    | _ -> Ok ()
  in
  let* population = optional json "population" (array Tiny_json.to_int) in
  let* max_distance = optional json "max_distance" int_field in
  let* () =
    (* a story's profile holds max_distance × times counts, allocated
       from its first batch, so max_distance (by default the population's
       length) has the same cap as times *)
    let groups =
      match (max_distance, population) with
      | Some d, _ -> d
      | None, ps -> Option.fold ~none:0 ~some:Array.length ps
    in
    if groups > max_cached_solutions then
      Error
        (Printf.sprintf
           "field \"max_distance\" (default: the length of \"population\") \
            must be at most %d"
           max_cached_solutions)
    else Ok ()
  in
  let* lateness = optional json "lateness" number_field in
  let* () =
    match lateness with
    | Some l when l < 0. -> Error "field \"lateness\" must be non-negative"
    | _ -> Ok ()
  in
  let* initiator =
    optional json "initiator" (scalar "an integer (a graph user id)" Tiny_json.to_int)
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
      Option.value spec.ob_max_distance ~default:(Array.length population)
    in
    let lateness = Option.value spec.ob_lateness ~default:t.cfg.live_lateness in
    let recovered = Hashtbl.find_opt t.live_cursors spec.ob_story in
    let watermark = match recovered with Some (_, c) -> c | None -> 0. in
    let* () =
      match (spec.ob_initiator, t.cfg.graph) with
      | Some initiator, Some graph
        when initiator < 0 || initiator >= Socialnet.Dataset.n_users graph ->
        Error
          (Printf.sprintf
             "field \"initiator\" must lie in 0..%d (a user of the \
              configured graph)"
             (Socialnet.Dataset.n_users graph - 1))
      | _ -> Ok ()
    in
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
        | Some (id, _) when find_fit t id <> None -> Some id
        | _ -> None
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

(* Whether a live profile can be fitted: it has reached t = 1 and a
   later hour, and its t = 1 column, which phi is built from, holds
   votes.  A profile resumed from a persisted cursor past t = 1 never
   sees those votes (they live only in the checkpointed fit), so it
   keeps serving the recovered fit rather than refitting on a hollow
   profile. *)
let fittable ~observed (density : Socialnet.Density.t) =
  Array.length observed > 0
  && observed.(0) = 1.
  && Array.exists (fun tm -> tm > 1.) observed
  && Array.exists (fun row -> row.(0) > 0.) density.Socialnet.Density.density

(* The refit itself: runs on a worker domain, under its own metrics
   shard and a daemon-minted trace id.  Reads the live profile fresh —
   a task whose generation [gen] no longer matches the story's is stale
   and dropped. *)
let run_refit t ~story ~gen =
  traced t ~trace_id:(Obs.Span.gen_trace_id ()) ~meth:"DAEMON"
    ~path:"/live/refit"
  @@ fun status ->
  let t0 = Obs.now_ns () in
  (* snapshot everything the fit needs under the lock, then work free *)
  let snap =
    Mutex.protect t.live_mutex (fun () ->
        match Hashtbl.find_opt t.live story with
        | Some ls when ls.ls_gen = gen ->
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
        | None -> None)
  in
  match snap with
  | None -> status := 410
  | Some (ls, full_obs, observed, votes, watermark, serving_fit) -> (
    let clear_inflight () =
      Mutex.protect t.live_mutex (fun () ->
          if ls.ls_gen = gen then ls.ls_inflight <- false)
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
    if not (fittable ~observed full_obs) then begin
      status := 422;
      clear_inflight ()
    end
    else begin
      (* warm start from the currently-serving entry when it is a PDE
         fit; the very first daemon fit for a story runs cold *)
      let init =
        match Option.bind serving_fit (find_fit t) with
        | Some { fe_backend = Be_dl { params; _ }; _ } ->
          Some (Dl.Fit.Init_params params)
        | _ -> None
      in
      let warm = init <> None in
      let config =
        {
          Dl.Fit.default_config with
          Dl.Fit.fit_times;
          starts = (if warm then 1 else Dl.Fit.default_config.Dl.Fit.starts);
        }
      in
      let id = Printf.sprintf "live-%s-g%d" story gen in
      match
        Obs.Span.with_span "live.refit"
          ~attrs:(fun () ->
            [
              Obs.Log.str "story" story;
              Obs.Log.bool "warm" warm;
              Obs.Log.int "votes" votes;
            ])
          (fun () ->
            let phi = Dl.Fit.phi_of_obs obs in
            let rng = Numerics.Rng.create t.cfg.live_seed in
            let result = Dl.Fit.fit ~config ~id ?init ~phi rng obs in
            (phi, result))
      with
      | exception e ->
        status := 500;
        Obs.Log.error "live.refit_failed" ~fields:(fun () ->
            [
              Obs.Log.str "story" story;
              Obs.Log.str "exn" (Printexc.to_string e);
            ]);
        clear_inflight ()
      | phi, result ->
        ignore
          (install_fit ~replace:true ~source:"live" ~obs_cursor:watermark t
             ~story
             (fit_entry ~id ~model:"dl" ~error:result.Dl.Fit.training_error
                ~evaluations:result.Dl.Fit.evaluations
                (Be_dl { params = result.Dl.Fit.params; phi }))
             (Some { ps_phi = phi; ps_config = config; ps_result = result })
            : fit_entry);
        Mutex.protect t.live_mutex (fun () ->
            if ls.ls_gen = gen then begin
              ls.ls_fit <- Some id;
              ls.ls_fits <- ls.ls_fits + 1;
              if warm then ls.ls_refits <- ls.ls_refits + 1;
              ls.ls_votes_at_fit <- votes;
              ls.ls_inflight <- false
            end);
        Obs.Metrics.incr m_live_fits;
        if warm then Obs.Metrics.incr m_live_refits;
        Obs.Metrics.observe m_live_refit_ns
          (float_of_int (Stdlib.max 0 (Obs.now_ns () - t0)));
        Obs.Log.info "live.refit" ~fields:(fun () ->
            [
              Obs.Log.str "story" story;
              Obs.Log.str "fit" id;
              Obs.Log.bool "warm" warm;
              Obs.Log.int "votes" votes;
              Obs.Log.float "watermark" watermark;
              Obs.Log.float "training_error" result.Dl.Fit.training_error;
              Obs.Log.int "evaluations" result.Dl.Fit.evaluations;
            ])
    end)

let drift_config t =
  {
    Live.Drift.threshold = t.cfg.drift_threshold;
    min_votes = t.cfg.refit_min_votes;
    min_new_votes = t.cfg.refit_min_new_votes;
  }

(* Fold a batch into its story's profile, O(1) per vote, counting the
   outcomes into [counts] (added, late, out of range, beyond horizon).
   Caller holds [live_mutex]. *)
let fold_votes ls votes counts =
  let rec fold i =
    if i = Array.length votes then Ok ()
    else begin
      let voter, time, distance = votes.(i) in
      let* d =
        match (distance, ls.ls_assignment) with
        | Some d, _ -> Ok d
        | None, Some a when voter >= 0 && voter < Array.length a -> Ok a.(voter)
        | None, Some _ ->
          Error (Printf.sprintf "voter %d is outside the configured graph" voter)
        | None, None ->
          Error
            (Printf.sprintf
               "vote for voter %d carries no \"distance\" and the story has \
                no graph context (pass \"initiator\" on the first batch of a \
                server started with a graph)"
               voter)
      in
      let k =
        match Live.Profile.add ls.ls_profile ~distance:d ~time with
        | Live.Profile.Added -> 0
        | Live.Profile.Late -> 1
        | Live.Profile.Out_of_range -> 2
        | Live.Profile.Beyond_horizon -> 3
      in
      counts.(k) <- counts.(k) + 1;
      fold (i + 1)
    end
  in
  fold 0

let handle_observe t (req : Http.request) =
  let counts = Array.make 4 0 in
  match
    let* spec = parse_observe_spec req.Http.body in
    Mutex.protect t.live_mutex @@ fun () ->
    let* ls =
      match Hashtbl.find_opt t.live spec.ob_story with
      | Some ls -> Ok ls
      | None -> create_live_story t spec
    in
    let* () = fold_votes ls spec.ob_votes counts in
    (* snapshot what the drift check needs, then leave the lock *)
    let p = ls.ls_profile in
    Ok
      ( spec,
        ls,
        Live.Profile.density p,
        Live.Profile.observed_times p,
        Live.Profile.votes p,
        Live.Profile.watermark p,
        ls.ls_votes_at_fit, ls.ls_fit, ls.ls_inflight )
  with
  | Error msg -> error_json 400 msg
  | Ok (spec, ls, density, observed, votes, watermark, votes_at_fit,
        serving_fit, inflight) ->
    Obs.Metrics.incr ~by:counts.(0) m_live_votes;
    Obs.Metrics.incr ~by:counts.(1) m_live_late;
    Obs.Metrics.incr ~by:counts.(2) m_live_range;
    Obs.Metrics.incr ~by:counts.(3) m_live_beyond;
    Obs.Metrics.incr m_live_batches;
    (* drift: the serving fit's error against the cells the stream
       has fully reached (PDE solves run outside any lock) *)
    let drift =
      Option.map
        (fun entry ->
          let predict ~x ~t:tq =
            match predict_point t entry ~x ~tq with
            | Ok v -> v
            | Error _ -> Float.nan
          in
          Live.Drift.relative_error ~predict ~obs:density ~times:observed)
        (Option.bind serving_fit (find_fit t))
    in
    let scored =
      match drift with Some (d, cells) when cells > 0 -> Some d | _ -> None
    in
    Option.iter (Obs.Metrics.observe m_live_drift) scored;
    let want_refit =
      fittable ~observed density && not inflight
      &&
      match drift with
      | None ->
        (* no serving fit yet: the initial (cold) daemon fit *)
        votes >= t.cfg.refit_min_votes
      | Some (d, cells) ->
        Live.Drift.should_refit (drift_config t) ~drift:d ~cells ~votes
          ~votes_at_fit
    in
    let gen =
      Mutex.protect t.live_mutex (fun () ->
          Option.iter (fun d -> ls.ls_drift <- d) scored;
          if want_refit && not ls.ls_inflight then begin
            ls.ls_inflight <- true;
            ls.ls_gen <- ls.ls_gen + 1;
            Some ls.ls_gen
          end
          else None)
    in
    Option.iter
      (fun gen -> t.submit (fun () -> run_refit t ~story:ls.ls_key ~gen))
      gen;
    Http.json_response 200
      (Tiny_json.Object
         [
           ("story", Tiny_json.String spec.ob_story);
           ("ingested", Tiny_json.Number (float_of_int counts.(0)));
           ("late", Tiny_json.Number (float_of_int counts.(1)));
           ("out_of_range", Tiny_json.Number (float_of_int counts.(2)));
           ("beyond_horizon", Tiny_json.Number (float_of_int counts.(3)));
           ("votes", Tiny_json.Number (float_of_int votes));
           ("watermark", Tiny_json.Number watermark);
           ( "drift",
             match scored with
             | Some d when Float.is_finite d -> Tiny_json.Number d
             | _ -> Tiny_json.Null );
           ("refit_scheduled", Tiny_json.Bool (gen <> None));
           ( "fit",
             match serving_fit with
             | Some id -> Tiny_json.String id
             | None -> Tiny_json.Null );
         ])

let handle_live t (req : Http.request) =
  let wanted = Http.query_param req "story" in
  let stories =
    Mutex.protect t.live_mutex @@ fun () ->
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

(* Path, method, route label and handler of every endpoint.  The
   transport answers GET /healthz before it reaches a worker; the row
   keeps its label and its answer for a caller of {!handle}. *)
let routes =
  [
    ("/healthz", "GET", "healthz", fun _ _ -> Transport.healthz);
    ("/metrics", "GET", "metrics", fun t _ -> handle_metrics t);
    ("/fit", "POST", "fit", handle_fit);
    ("/predict", "GET", "predict", handle_predict);
    ("/predict", "POST", "predict", handle_predict_batch);
    ("/observe", "POST", "observe", handle_observe);
    ("/live", "GET", "live", handle_live);
    ("/debug/traces", "GET", "debug_traces", handle_debug_traces);
    ("/debug/flame", "GET", "debug_flame", fun t _ -> handle_debug_flame t);
  ]

let route_label (req : Http.request) =
  match List.find_opt (fun (path, _, _, _) -> path = req.Http.path) routes with
  | Some (_, _, label, _) -> label
  | None -> "other"

let route t label (req : Http.request) =
  Obs.Metrics.incr (m_requests label);
  Obs.Metrics.set m_inflight (float_of_int (t.inflight ()));
  match
    List.find_opt
      (fun (path, meth, _, _) -> path = req.Http.path && meth = req.Http.meth)
      routes
  with
  | Some (_, _, _, handler) -> handler t req
  | None when label <> "other" ->
    error_json 405 (Printf.sprintf "method %s not allowed here" req.Http.meth)
  | None -> error_json 404 (Printf.sprintf "no such endpoint %s" req.Http.path)

(* Everything between "a parsed request" and its response: routing,
   tracing, per-request metrics, the trace ring.  Runs on a worker
   domain and never touches a socket. *)
let handle t (req : Http.request) =
  (* request-scoped trace id: accept a sane X-Trace-Id, else mint one;
     stamped into every log record and span from here on *)
  let trace_id =
    match Http.header req "x-trace-id" with
    | Some v when valid_trace_token v -> v
    | _ -> Obs.Span.gen_trace_id ()
  in
  traced t ~trace_id ~meth:req.Http.meth ~path:req.Http.path @@ fun status ->
  let t0 = Obs.now_ns () in
  let label = route_label req in
  let resp =
    Obs.Span.with_span "serve.request"
      ~attrs:(fun () ->
        [ Obs.Log.str "method" req.Http.meth; Obs.Log.str "route" label ])
      (fun () ->
        match route t label req with
        | resp -> resp
        | exception e ->
          Obs.Log.error "serve.handler_crashed" ~fields:(fun () ->
              [
                Obs.Log.str "path" req.Http.path;
                Obs.Log.str "exn" (Printexc.to_string e);
              ]);
          error_json 500 "internal error")
  in
  status := resp.Http.status;
  Obs.Metrics.incr (m_responses resp.Http.status);
  let dur_ns = Stdlib.max 0 (Obs.now_ns () - t0) in
  Obs.Metrics.observe m_request_ns (float_of_int dur_ns);
  Obs.Metrics.observe (m_route_ns label) (float_of_int dur_ns);
  Obs.Metrics.incr (m_route_status label resp.Http.status);
  let dur_ms = float_of_int dur_ns /. 1e6 in
  if dur_ms > t.cfg.slow_request_ms then begin
    Obs.Metrics.incr m_slow;
    Obs.Log.warn "serve.slow_request" ~fields:(fun () ->
        [
          Obs.Log.str "trace_id" trace_id;
          Obs.Log.str "route" label;
          Obs.Log.int "status" resp.Http.status;
          Obs.Log.float "ms" dur_ms;
        ])
  end;
  { resp with Http.extra_headers = ("X-Trace-Id", trace_id) :: resp.Http.extra_headers }

let run t =
  (* a peer closing mid-write must not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let app = t.app in
  Obs.Log.info "serve.listening" ~fields:(fun () ->
      [
        Obs.Log.str "host" app.cfg.host;
        Obs.Log.int "port" (port t);
        Obs.Log.int "jobs" app.cfg.jobs;
      ]);
  Transport.run t.tr ~record:(with_agg app) (handle app);
  Option.iter Store.close app.store;
  (* final flush so short-lived servers still deliver their telemetry *)
  Option.iter Otlp.shutdown app.otlp;
  (* fold the server's aggregate into the caller's context so a final
     metrics dump (--metrics-out, bench) sees every serve.* series *)
  Mutex.protect app.agg_mutex (fun () -> Obs.Shard.merge app.agg);
  Obs.Log.info "serve.stopped" ~fields:(fun () ->
      [ Obs.Log.int "requests_handled" (requests_handled t) ])
