(* Per-layer timings taken from outside: the harness calls each module's
   public functions on inputs shaped like the workloads' own (the first
   calibrated story, the recorded requests, a replay stream) and times
   them.  Run only in traced runs. *)

open Common

type inputs = {
  exp : Dl.Pipeline.experiment;  (* the first story calibrate fitted *)
  ds : Socialnet.Dataset.t;
  items : W_calibrate.item array;
  predict_request : string;  (* recorded serve-read request bytes *)
  predict_response : string;
  observe_body : string;  (* recorded ingest-refit request body *)
  stream : W_ingest.stream;
  store_dir : string;
}

let us ns = ns /. 1e3

(* Per-call time of [f] in ns: the median of [rounds] rounds of [reps]
   calls. *)
let time_ns ?(rounds = 7) ~reps f =
  let per_round =
    Array.init rounds (fun _ ->
        let t0 = now () in
        for _ = 1 to reps do
          f ()
        done;
        (now () -. t0) *. 1e9 /. float_of_int reps)
  in
  Bstats.median per_round

let tridiag () =
  let n = 41 and a = 0.3 in
  let m =
    Numerics.Tridiag.make
      ~sub:(Array.make (n - 1) (-.a))
      ~diag:(Array.make n (1. +. (2. *. a)))
      ~sup:(Array.make (n - 1) (-.a))
  in
  let f = Numerics.Tridiag.factorize m in
  let src = Array.init n (fun i -> 1. +. float_of_int i) and dst = Array.make n 0. in
  time_ns ~reps:20_000 (fun () -> Numerics.Tridiag.solve_factored f ~src ~dst)

let fit_times = Dl.Fit.default_config.Dl.Fit.fit_times

let pde (e : Dl.Pipeline.experiment) =
  let params = e.Dl.Pipeline.params and phi = e.Dl.Pipeline.phi in
  let workspace = Numerics.Pde.panel_workspace () in
  let fit_solve () =
    ignore
      (Dl.Model.solve ~scheme:Dl.Model.Strang ~nx:41 ~dt:0.05 ~workspace params ~phi
         ~times:fit_times)
  in
  let fit_ns = time_ns ~reps:50 fit_solve in
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do fit_solve () done;
  let words = (Gc.minor_words () -. w0) /. 20. in
  let serve_ns =
    time_ns ~rounds:5 ~reps:3 (fun () ->
        ignore (Dl.Model.solve params ~phi ~times:[| 5. |]))
  in
  let objective_ns =
    time_ns ~reps:50 (fun () ->
        ignore
          (Dl.Fit.objective ~workspace ~phi ~obs:e.Dl.Pipeline.observation ~fit_times
             params))
  in
  let sol = Dl.Model.solve params ~phi ~times:[| 2.; 3.; 4.; 5.; 6. |] in
  let p = Dl.Model.predictor sol in
  let l = params.Dl.Params.l and span = params.Dl.Params.big_l -. params.Dl.Params.l in
  let k = ref 0 in
  let point_ns =
    time_ns ~reps:100_000 (fun () ->
        incr k;
        let u = float_of_int (!k land 1023) /. 1024. in
        ignore (p ~x:(l +. (u *. span)) ~t:(2. +. (4. *. u))))
  in
  [
    ("numerics.pde.fit_solve_us", us fit_ns);
    ("numerics.pde.fit_solve_words", words);
    ("numerics.pde.serve_solve_us", us serve_ns);
    ("core.fit.objective_us", us objective_ns);
    ("core.model.point_ns", point_ns);
  ]

let prepare ds (items : W_calibrate.item array) =
  let ms =
    Array.map
      (fun (it : W_calibrate.item) ->
        time_ns ~rounds:3 ~reps:1 (fun () ->
            ignore (Dl.Pipeline.prepare ds ~story:it.W_calibrate.story ~metric:it.W_calibrate.metric))
        /. 1e6)
      items
  in
  [ ("core.pipeline.prepare_ms", Bstats.mean ms) ]

let serve i =
  let http_ns =
    let b = Bytes.of_string i.predict_request in
    time_ns ~reps:200 (fun () ->
        let p = Serve.Http.parser ~max_header:65536 ~max_body:(16 * 1024 * 1024) in
        Serve.Http.parser_feed p b 0 (Bytes.length b);
        match Serve.Http.parser_next p with
        | `Request _ -> ()
        | `More | `Error _ -> failwith "recorded request does not parse")
  in
  let docs = [ i.predict_response; i.observe_body ] in
  let parsed =
    List.map
      (fun d ->
        match Serve.Tiny_json.parse d with
        | Ok j -> j
        | Error e -> failwith ("recorded JSON does not parse: " ^ e))
      docs
  in
  let parse_ns =
    time_ns ~reps:50 (fun () -> List.iter (fun d -> ignore (Serve.Tiny_json.parse d)) docs)
  in
  let render_ns =
    time_ns ~reps:50 (fun () -> List.iter (fun j -> ignore (Serve.Tiny_json.to_string j)) parsed)
  in
  [
    ("serve.http.parse_us", us http_ns);
    ("serve.tiny_json.parse_us", us parse_ns);
    ("serve.tiny_json.render_us", us render_ns);
  ]

let live_and_store i =
  let r = i.stream.W_ingest.replay in
  let times = r.Socialnet.Replay.times in
  let profile () =
    Live.Profile.create ~lateness:2. ~max_distance:r.Socialnet.Replay.max_distance ~times
      ~population:r.Socialnet.Replay.population ()
  in
  let votes = i.stream.W_ingest.votes in
  let add_ns =
    time_ns ~reps:20 (fun () ->
        let p = profile () in
        Array.iter
          (fun (e : Socialnet.Replay.event) ->
            ignore
              (Live.Profile.add p ~distance:e.Socialnet.Replay.distance
                 ~time:e.Socialnet.Replay.time))
          votes)
    /. float_of_int (max 1 (Array.length votes))
  in
  (* warm refit on the whole stream from a fit on its first two thirds,
     as the live daemon does *)
  let full = Socialnet.Replay.batch_density r in
  let keep ts = Array.of_list (List.filter (fun t -> t > 1.) (Array.to_list ts)) in
  let m = Array.length (Array.of_list (List.filter (fun t -> t <= 4.) (Array.to_list times))) in
  let prefix =
    {
      full with
      Socialnet.Density.times = Array.sub times 0 m;
      density = Array.map (fun row -> Array.sub row 0 m) full.Socialnet.Density.density;
    }
  in
  let prior =
    Dl.Fit.fit
      ~config:{ Dl.Fit.default_config with Dl.Fit.fit_times = keep prefix.Socialnet.Density.times }
      (Numerics.Rng.create 7) prefix
  in
  let config = { Dl.Fit.default_config with Dl.Fit.fit_times = keep times; starts = 1 } in
  let warm () =
    Dl.Fit.fit ~config ~init:(Dl.Fit.Init_params prior.Dl.Fit.params) (Numerics.Rng.create 7) full
  in
  let result = warm () in
  let warm_ns = time_ns ~rounds:3 ~reps:1 (fun () -> ignore (warm ())) in
  let phi = Dl.Fit.phi_of_obs full in
  let sol = Dl.Model.solve result.Dl.Fit.params ~phi ~times in
  let predict = Dl.Model.predictor sol in
  let drift_ns =
    time_ns ~reps:200 (fun () -> ignore (Live.Drift.relative_error ~predict ~obs:full ~times))
  in
  Proc.mkdir_p i.store_dir;
  let store = Store.open_ ~fsync:true i.store_dir in
  let k = ref 0 in
  let append_ns =
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () ->
        time_ns ~rounds:5 ~reps:10 (fun () ->
            incr k;
            Store.append store
              (Store.record_of_fit ~id:(Printf.sprintf "bench-%d" !k) ~story:"bench"
                 ~source:"perfbench" ~phi ~config ~result ())))
  in
  [
    ("live.profile.add_ns", add_ns);
    ("core.fit.warm_ms", warm_ns /. 1e6);
    ("core.fit.warm_evaluations", float_of_int result.Dl.Fit.evaluations);
    ("live.drift.check_us", us drift_ns);
    ("store.append_fsync_us", us append_ns);
  ]

let run i =
  [ ("numerics.tridiag.sweep_ns", tridiag ()) ]
  @ pde i.exp @ prepare i.ds i.items @ serve i @ live_and_store i
