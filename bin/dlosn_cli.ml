(* dlosn: command-line front end for the diffusive-logistic information
   diffusion library.

   Subcommands:
     generate      build a synthetic Digg corpus and save it as TSV
     characterize  print the temporal/spatial density patterns (Figs 2-5)
     predict       run the DL prediction pipeline on a story (Fig 7, Tables I-II)
     properties    verify the model's theoretical properties numerically
     sweep         parameter-sensitivity sweep over d, r and K
     tournament    rank every registry model on a shared story set *)

open Cmdliner

(* --- shared options --- *)

let scale_conv =
  let parse = function
    | "small" -> Ok Socialnet.Digg.small
    | "medium" -> Ok Socialnet.Digg.medium
    | "full" -> Ok Socialnet.Digg.full
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (small|medium|full)" s))
  in
  let print ppf (s : Socialnet.Digg.scale) =
    Format.fprintf ppf "%d-users" s.Socialnet.Digg.n_users
  in
  Arg.conv (parse, print)

let scale_arg =
  Arg.(
    value
    & opt scale_conv Socialnet.Digg.medium
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Corpus scale: small (~2k users), medium (~20k), full \
              (139,409 users / 3,553 stories, the paper's scale).")

let seed_arg =
  Arg.(
    value & opt int 7
    & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic corpus seed.")

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 1 -> Ok j
    | Some _ -> Error (`Msg "expected a worker count >= 1")
    | None -> Error (`Msg "expected an integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for the parallel sections (calibration \
              restarts, per-story batch evaluation, sweeps).  Defaults \
              to the $(b,DLOSN_NUM_DOMAINS) environment variable, or 1. \
              Results are bit-identical whatever the value.")

let pool_of_jobs = function
  | Some j -> Parallel.Pool.create ~jobs:j ()
  | None -> Parallel.Pool.create ()

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Persist every completed calibration into the model store \
              at DIR (created if missing) so it can be inspected with \
              $(b,dlosn store) or warm-start $(b,dlosn serve).")

(* Run [f] with the process-wide fit hook wired to a store at [dir],
   so every Fit.fit completed inside [f] is durably checkpointed. *)
let with_fit_store store_dir f =
  match store_dir with
  | None -> f ()
  | Some dir ->
    let store = Store.open_ ~source:"cli" dir in
    Store.attach_fit_hook store ();
    Fun.protect
      ~finally:(fun () ->
        Store.detach_fit_hook ();
        Store.close store)
      f

(* --- observability options (shared by every subcommand) --- *)

let log_level_conv =
  let parse s =
    match Obs.Level.of_string s with
    | Ok l -> Ok l
    | Error msg -> Error (`Msg msg)
  in
  let print ppf l = Format.pp_print_string ppf (Obs.Level.to_string l) in
  Arg.conv (parse, print)

let log_level_arg =
  Arg.(
    value
    & opt (some log_level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Enable structured logging on stderr at LEVEL (debug, info, \
              warn or error).  The $(b,DLOSN_LOG) environment variable \
              sets the same default.")

let log_json_arg =
  Arg.(
    value & flag
    & info [ "log-json" ]
        ~doc:"Emit logs as JSON lines instead of human-readable text \
              (implies $(b,--log-level) info when no level is given).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"After the command finishes, dump every recorded counter, \
              gauge and histogram to FILE as JSON (schema \
              dlosn-metrics/1).")

let flame_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flame-out" ] ~docv:"FILE"
        ~doc:"After the command finishes, write the recorded span trees \
              to FILE in folded-stack format (one \
              $(i,frame;frame weight) line per stack, weight = self \
              time in nanoseconds) — feed it to flamegraph.pl or \
              speedscope.")

let otlp_endpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "otlp-endpoint" ] ~docv:"URL"
        ~doc:"Export spans, logs and metrics to this OTLP/HTTP collector \
              ($(i,http://host:port)) while the command runs.  The \
              $(b,DLOSN_OTLP) environment variable sets the same \
              default.")

let otlp_sample_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "otlp-sample-rate" ] ~docv:"RATE"
        ~doc:"Head-sample OTLP export: keep this fraction of traces \
              (0..1, default 1 = everything), decided per trace id so \
              a trace exports with all its spans and logs or not at \
              all.  The $(b,DLOSN_OTLP_SAMPLE) environment variable \
              sets the same default.")

type obs_opts = {
  metrics_out : string option;
  flame_out : string option;
  otlp_endpoint : string option;  (* resolved: flag, else DLOSN_OTLP *)
  otlp_sample_rate : float;  (* resolved: flag, else DLOSN_OTLP_SAMPLE *)
}

let setup_obs level json metrics_out flame_out otlp_endpoint otlp_sample_rate =
  if level <> None || json || metrics_out <> None || flame_out <> None then
    Obs.set_enabled true;
  (match (level, json) with
  | Some l, _ -> Obs.Log.set_level (Some l)
  | None, true -> Obs.Log.set_level (Some Obs.Level.Info)
  | None, false -> ());
  if json then Obs.Log.set_sink Obs.Log.Json;
  let otlp_endpoint =
    match otlp_endpoint with
    | Some _ as e -> e
    | None -> Sys.getenv_opt Otlp.env_var
  in
  let otlp_sample_rate =
    match otlp_sample_rate with
    | Some r -> r
    | None -> (
      match Sys.getenv_opt Otlp.sample_env_var with
      | None -> 1.0
      | Some v -> (
        match float_of_string_opt v with
        | Some r -> r
        | None ->
          Format.eprintf "dlosn: ignoring %s=%S (not a number)@."
            Otlp.sample_env_var v;
          1.0))
  in
  { metrics_out; flame_out; otlp_endpoint; otlp_sample_rate }

(* Build, hook and start an exporter for a batch-style command.  The
   serve command skips this (with_obs ~otlp:false) and passes the
   endpoint into the server config instead, so export snapshots read
   the server's request aggregate rather than this domain's context. *)
let start_cli_otlp opts =
  match opts.otlp_endpoint with
  | None -> None
  | Some endpoint -> (
    match
      Otlp.create
        ~config:
          { Otlp.default_config with
            Otlp.sample_rate = opts.otlp_sample_rate }
        ~endpoint ~metrics_provider:Obs.Metrics.expose ()
    with
    | exporter ->
      Obs.set_enabled true;
      Otlp.observe_spans exporter;
      Otlp.tee_logs exporter;
      Otlp.start exporter;
      Some exporter
    | exception Invalid_argument msg ->
      Format.eprintf "dlosn: ignoring OTLP endpoint: %s@." msg;
      None)

let obs_term =
  Term.(
    const setup_obs $ log_level_arg $ log_json_arg $ metrics_out_arg
    $ flame_out_arg $ otlp_endpoint_arg $ otlp_sample_rate_arg)

(* Runs even when the command raises, so a failed run still leaves its
   profile and metrics behind. *)
let with_obs ?(otlp = true) opts f =
  let exporter = if otlp then start_cli_otlp opts else None in
  Fun.protect
    ~finally:(fun () ->
      (if Obs.enabled () then begin
         Obs.Span.log_summary ();
         (* one status line per artifact, JSON-clean when needed *)
         let wrote what path =
           match Obs.Log.sink () with
           | Obs.Log.Json ->
             Obs.Log.info (what ^ ".written") ~fields:(fun () ->
                 [ Obs.Log.str "path" path ])
           | Obs.Log.Human ->
             Format.eprintf "%s written to %s@." what path
         in
         (match opts.flame_out with
         | Some path ->
           let oc = open_out path in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () ->
               output_string oc (Obs.Span.to_folded (Obs.Span.roots ())));
           wrote "flame" path
         | None -> ());
         match opts.metrics_out with
         | Some path ->
           Obs.Metrics.write_json ~path;
           wrote "metrics" path
         | None -> ()
       end);
      (* shutdown runs a final flush, so spans recorded after the last
         periodic flush still reach the collector *)
      Option.iter Otlp.shutdown exporter)
    f

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:"Load a dataset saved by $(b,generate) instead of building \
              one (story indices then refer to positions in that file; \
              the four representative stories are the last four).")

let story_arg =
  Arg.(
    value & opt int 1
    & info [ "story" ] ~docv:"N"
        ~doc:"Representative story to analyse: 1 (most popular) to 4.")

let metric_conv =
  let parse = function
    | "hops" -> Ok `Hops
    | "interest" -> Ok `Interest
    | "interest-quantile" -> Ok `Interest_quantile
    | s ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown metric %S (hops|interest|interest-quantile)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | `Hops -> "hops"
      | `Interest -> "interest"
      | `Interest_quantile -> "interest-quantile")
  in
  Arg.conv (parse, print)

let metric_arg =
  Arg.(
    value & opt metric_conv `Hops
    & info [ "metric" ] ~docv:"METRIC"
        ~doc:"Distance metric: friendship $(b,hops), shared \
              $(b,interest) (equal-width groups, as in the paper) or \
              $(b,interest-quantile) (population-balanced groups).")

let pipeline_metric = function
  | `Hops -> Dl.Pipeline.hops
  | `Interest -> Dl.Pipeline.interest
  | `Interest_quantile ->
    Dl.Pipeline.Interest
      { n_groups = 5; grouping = Socialnet.Distance.Quantile }

(* Either load a saved dataset (rep stories are the last four) or build
   a fresh corpus. *)
let get_dataset load scale seed =
  match load with
  | Some path ->
    let ds = Socialnet.Dataset.load_tsv path in
    let n = Socialnet.Dataset.n_stories ds in
    if n < 4 then failwith "dataset has fewer than four stories";
    (ds, Array.init 4 (fun i -> n - 4 + i))
  | None ->
    let corpus = Socialnet.Digg.build ~scale ~seed () in
    (corpus.Socialnet.Digg.dataset, corpus.Socialnet.Digg.rep_ids)

let get_story ds rep_ids index =
  if index < 1 || index > Array.length rep_ids then
    failwith "story index must be 1..4";
  Socialnet.Dataset.story ds rep_ids.(index - 1)

(* --- generate --- *)

let generate_cmd =
  let out =
    Arg.(
      value & opt string "digg_corpus.tsv"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run obs scale seed out =
   with_obs obs @@ fun () ->
    Format.printf "Building corpus (%d users, seed %d)...@."
      scale.Socialnet.Digg.n_users seed;
    let corpus = Socialnet.Digg.build ~scale ~seed () in
    let ds = corpus.Socialnet.Digg.dataset in
    Socialnet.Dataset.save_tsv ds out;
    Format.printf "%a@.written to %s@." Socialnet.Dataset.pp ds out;
    Array.iteri
      (fun k id ->
        Format.printf "s%d = %a@." (k + 1) Socialnet.Types.pp_story
          (Socialnet.Dataset.story ds id))
      corpus.Socialnet.Digg.rep_ids
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Build a synthetic Digg corpus and save it.")
    Term.(const run $ obs_term $ scale_arg $ seed_arg $ out)

(* --- characterize --- *)

let characterize_cmd =
  let run obs scale seed load metric =
   with_obs obs @@ fun () ->
    let ds, rep_ids = get_dataset load scale seed in
    let times = [| 1.; 5.; 10.; 15.; 20.; 25.; 30.; 35.; 40.; 45.; 50. |] in
    Array.iteri
      (fun k id ->
        let story = Socialnet.Dataset.story ds id in
        Format.printf "@.=== s%d: %a ===@." (k + 1) Socialnet.Types.pp_story
          story;
        let assignment =
          match metric with
          | `Hops -> Socialnet.Distance.friendship_hops ds ~story
          | `Interest -> Socialnet.Distance.interest_groups ds ~story
          | `Interest_quantile ->
            Socialnet.Distance.interest_groups
              ~grouping:Socialnet.Distance.Quantile ds ~story
        in
        (if metric = `Hops then begin
           let dist =
             Socialnet.Density.distance_distribution ~assignment
               ~max_distance:10
           in
           Format.printf "distance distribution (Fig 2): ";
           Array.iter (fun (d, f) -> Format.printf "%d:%.3f " d f) dist;
           Format.printf "@."
         end);
        let obs =
          Socialnet.Density.observe story ~assignment ~max_distance:5 ~times
        in
        Format.printf "%a@." Socialnet.Density.pp obs;
        if Socialnet.Types.story_vote_count story >= 2 then begin
          let half = Socialnet.Temporal.time_to_fraction story ~fraction:0.5 in
          let sat = Socialnet.Temporal.saturation_time story in
          let gaps = Socialnet.Temporal.inter_arrival_stats story in
          Format.printf
            "50%% of votes by %.1f h; saturation (98%%) at %.1f h; median \
             inter-vote gap %.3f h@."
            half sat gaps.Socialnet.Temporal.median
        end)
      rep_ids
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Print the temporal and spatial diffusion patterns (Figs 2-5).")
    Term.(const run $ obs_term $ scale_arg $ seed_arg $ load_arg $ metric_arg)

(* --- predict --- *)

let params_conv =
  let parse = function
    | "paper" -> Ok `Paper
    | "auto" -> Ok `Auto
    | "insample" -> Ok `Insample
    | s -> Error (`Msg (Printf.sprintf "unknown params %S (paper|auto|insample)" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with `Paper -> "paper" | `Auto -> "auto" | `Insample -> "insample")
  in
  Arg.conv (parse, print)

let predict_cmd =
  let params_arg =
    Arg.(
      value & opt params_conv `Paper
      & info [ "params" ] ~docv:"P"
          ~doc:"Parameter choice: $(b,paper) (published constants), \
                $(b,auto) (calibrated on t = 2..4, judged out of \
                sample) or $(b,insample) (calibrated on t = 2..6 like \
                the paper's hand tuning).")
  in
  let baselines_arg =
    Arg.(
      value & flag
      & info [ "baselines" ]
          ~doc:"Also report persistence / linear / no-diffusion-logistic \
                baselines.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write a markdown report of the experiment to FILE.")
  in
  let export_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"DIR"
          ~doc:"Write plot-ready TSV exports (densities, predictions, \
                accuracy, surface) into DIR.")
  in
  let run obs scale seed load metric story params baselines report export jobs
      store_dir =
   with_obs obs @@ fun () ->
   with_fit_store store_dir @@ fun () ->
    let ds, rep_ids = get_dataset load scale seed in
    let pool = pool_of_jobs jobs in
    let story = get_story ds rep_ids story in
    Format.printf "story: %a@." Socialnet.Types.pp_story story;
    let param_choice =
      match params with
      | `Paper -> Dl.Pipeline.Paper
      | `Auto ->
        Dl.Pipeline.Auto
          { rng = Numerics.Rng.create (seed + 1); config = Dl.Fit.default_config }
      | `Insample ->
        Dl.Pipeline.Auto
          {
            rng = Numerics.Rng.create (seed + 1);
            config =
              {
                Dl.Fit.default_config with
                fit_times = [| 2.; 3.; 4.; 5.; 6. |];
              };
          }
    in
    let exp =
      Dl.Pipeline.run ~params:param_choice ~pool ds ~story
        ~metric:(pipeline_metric metric)
    in
    Format.printf "params: %a@." Dl.Params.pp exp.Dl.Pipeline.params;
    (match exp.Dl.Pipeline.fit_error with
    | Some e -> Format.printf "training error: %.4f@." e
    | None -> ());
    Format.printf "%a@." Dl.Accuracy.pp_table exp.Dl.Pipeline.table;
    let named_baselines () =
      let obs = exp.Dl.Pipeline.observation in
      let fit_times = [| 2.; 3.; 4. |] in
      [
        ("persistence", Dl.Baselines.persistence obs);
        ("linear trend", Dl.Baselines.linear_trend obs ~fit_times);
        ( "logistic (no diffusion)",
          Dl.Baselines.logistic_per_distance obs ~fit_times );
      ]
    in
    if baselines then begin
      Format.printf "@.%-24s overall: %.2f%%@." "DL"
        (100. *. exp.Dl.Pipeline.table.Dl.Accuracy.overall_average);
      List.iter
        (fun (name, p) ->
          let table = Dl.Pipeline.baseline_table exp ~baseline:p in
          Format.printf "%-24s overall: %.2f%%@." name
            (100. *. table.Dl.Accuracy.overall_average))
        (named_baselines ())
    end;
    (match report with
    | Some path ->
      let text =
        if baselines then
          Dl.Report.render_with_baselines exp ~baselines:(named_baselines ())
        else Dl.Report.render exp
      in
      Dl.Report.save ~path text;
      Format.printf "report written to %s@." path
    | None -> ());
    match export with
    | Some dir ->
      let written = Dl.Export.export_experiment exp ~dir ~prefix:"experiment" in
      Format.printf "exported %d files to %s@." (List.length written) dir
    | None -> ()
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Predict a story's density evolution with the DL model \
             (Fig 7, Tables I-II).")
    Term.(
      const run $ obs_term $ scale_arg $ seed_arg $ load_arg $ metric_arg
      $ story_arg $ params_arg $ baselines_arg $ report_arg $ export_arg
      $ jobs_arg $ store_arg)

(* --- properties --- *)

let properties_cmd =
  let run obs scale seed load metric story =
   with_obs obs @@ fun () ->
    let ds, rep_ids = get_dataset load scale seed in
    let story = get_story ds rep_ids story in
    let exp = Dl.Pipeline.run ds ~story ~metric:(pipeline_metric metric) in
    Format.printf "story: %a@.params: %a@." Socialnet.Types.pp_story story
      Dl.Params.pp exp.Dl.Pipeline.params;
    Format.printf "phi admissibility: %a@." Dl.Initial.pp_report
      (Dl.Initial.check exp.Dl.Pipeline.phi ~params:exp.Dl.Pipeline.params);
    Format.printf "unique property (0 <= I <= K): %a@."
      Dl.Properties.pp_verdict
      (Dl.Properties.bounds exp.Dl.Pipeline.solution);
    Format.printf "strictly increasing property:  %a@."
      Dl.Properties.pp_verdict
      (Dl.Properties.monotone_in_time exp.Dl.Pipeline.solution)
  in
  Cmd.v
    (Cmd.info "properties"
       ~doc:"Verify the model's theoretical properties on a story.")
    Term.(
      const run $ obs_term $ scale_arg $ seed_arg $ load_arg $ metric_arg
      $ story_arg)

(* --- sweep --- *)

let sweep_cmd =
  let run obs scale seed load story jobs =
   with_obs obs @@ fun () ->
    let ds, rep_ids = get_dataset load scale seed in
    let pool = pool_of_jobs jobs in
    let story = get_story ds rep_ids story in
    let exp = Dl.Pipeline.run ds ~story ~metric:Dl.Pipeline.hops in
    let phi = exp.Dl.Pipeline.phi in
    let base = exp.Dl.Pipeline.params in
    let distances = exp.Dl.Pipeline.observation.Socialnet.Density.distances in
    let accuracy params =
      let sol = Dl.Model.solve params ~phi ~times:[| 2.; 3.; 4.; 5.; 6. |] in
      let table =
        Dl.Accuracy.table
          ~predict:(fun ~x ~t -> Dl.Model.predict sol ~x:(float_of_int x) ~t)
          ~actual:(fun ~x ~t ->
            Socialnet.Density.at exp.Dl.Pipeline.observation ~distance:x
              ~time:t)
          ~distances ~times:[| 2.; 3.; 4.; 5.; 6. |]
      in
      100. *. table.Dl.Accuracy.overall_average
    in
    (* each candidate is an independent solve: evaluate the whole sweep
       on the pool, then print in order *)
    let sweep name fmt candidates of_value =
      Format.printf "%s@." name;
      let values =
        Parallel.Pool.parallel_map pool
          (fun v -> accuracy (of_value v))
          (Array.of_list candidates)
      in
      List.iteri
        (fun i v ->
          Format.printf "  %s = %-7g overall accuracy %.2f%%@." fmt v
            values.(i))
        candidates;
      Format.printf "@."
    in
    Format.printf "story: %a@.@." Socialnet.Types.pp_story story;
    sweep "diffusion-rate sweep (others fixed at paper values):" "d"
      [ 0.; 0.005; 0.01; 0.05; 0.1; 0.3 ]
      (fun d -> { base with Dl.Params.d });
    sweep "carrying-capacity sweep:" "K"
      [ 15.; 25.; 40.; 60. ]
      (fun k -> { base with Dl.Params.k });
    sweep "growth-decay sweep (r = a e^{-b(t-1)} + c, varying b):" "b"
      [ 0.5; 1.0; 1.5; 2.5 ]
      (fun b ->
        { base with Dl.Params.r = Dl.Growth.Exp_decay { a = 1.4; b; c = 0.25 } })
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Parameter-sensitivity sweep around the paper values.")
    Term.(
      const run $ obs_term $ scale_arg $ seed_arg $ load_arg $ story_arg
      $ jobs_arg)

(* --- batch --- *)

let batch_cmd =
  let n_arg =
    Arg.(
      value & opt int 12
      & info [ "n" ] ~docv:"N" ~doc:"Number of top-voted stories to evaluate.")
  in
  let mode_conv =
    let parse = function
      | "paper" -> Ok `Paper
      | "insample" -> Ok `Insample
      | "oos" -> Ok `Oos
      | s -> Error (`Msg (Printf.sprintf "unknown mode %S (paper|insample|oos)" s))
    in
    let print ppf m =
      Format.pp_print_string ppf
        (match m with `Paper -> "paper" | `Insample -> "insample" | `Oos -> "oos")
    in
    Arg.conv (parse, print)
  in
  let mode_arg =
    Arg.(
      value & opt mode_conv `Paper
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Parameter protocol per story: $(b,paper), $(b,insample) \
                or $(b,oos).")
  in
  let run obs scale seed load metric n mode jobs store_dir =
   with_obs obs @@ fun () ->
   with_fit_store store_dir @@ fun () ->
    let ds, _ = get_dataset load scale seed in
    let pool = pool_of_jobs jobs in
    let stories = Dl.Batch.top_stories ds ~n in
    let mode =
      match mode with
      | `Paper -> Dl.Batch.Paper_params
      | `Insample -> Dl.Batch.In_sample (seed + 100)
      | `Oos -> Dl.Batch.Out_of_sample (seed + 100)
    in
    let summary =
      Obs_progress.with_bar ~label:"batch" ~total:(Array.length stories)
        ~span:"batch.story"
      @@ fun () ->
      Dl.Batch.evaluate ~pool ~mode ~metric:(pipeline_metric metric) ds
        ~stories
    in
    Format.printf "%a@." Dl.Batch.pp_summary summary;
    Array.iter
      (fun (r : Dl.Batch.story_result) ->
        match r.Dl.Batch.skipped with
        | None ->
          Format.printf "  story %-5d %6d votes  %6.2f%%@." r.Dl.Batch.story_id
            r.Dl.Batch.votes
            (100. *. r.Dl.Batch.overall)
        | Some reason ->
          Format.printf "  story %-5d %6d votes  skipped (%s)@."
            r.Dl.Batch.story_id r.Dl.Batch.votes reason)
      summary.Dl.Batch.results
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Evaluate the DL pipeline across the corpus's top stories.")
    Term.(
      const run $ obs_term $ scale_arg $ seed_arg $ load_arg $ metric_arg
      $ n_arg $ mode_arg $ jobs_arg $ store_arg)

(* --- stats --- *)

let stats_cmd =
  let run obs scale seed load =
   with_obs obs @@ fun () ->
    let ds, rep_ids = get_dataset load scale seed in
    Format.printf "%a@.@." Socialnet.Corpus_stats.pp
      (Socialnet.Corpus_stats.compute ds);
    Format.printf "representative stories:@.";
    Array.iteri
      (fun k id ->
        let story = Socialnet.Dataset.story ds id in
        Format.printf "  s%d = %a@." (k + 1) Socialnet.Types.pp_story story)
      rep_ids;
    let ranked =
      Socialnet.Temporal.spread_speed_rank
        (Array.map (Socialnet.Dataset.story ds) rep_ids)
    in
    Format.printf "spread speed (time to half the votes), fastest first:@.";
    Array.iter
      (fun (id, t) -> Format.printf "  story %d: %.1f h@." id t)
      ranked
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print corpus-level statistics.")
    Term.(const run $ obs_term $ scale_arg $ seed_arg $ load_arg)

(* --- serve --- *)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port, \
                printed at startup).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Live-connection cap; new connections past it are \
                answered 503 and closed.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float Serve.Server.default_config.Serve.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close an idle keep-alive connection after this many \
                seconds without a request.")
  in
  let serve_store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"Persistent model store: warm-start the fit cache from \
                DIR on boot (a restart serves previously fitted \
                stories without refitting) and durably append every \
                new fit there.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt float Serve.Server.default_config.Serve.Server.slow_request_ms
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Warn (with the request's trace id) about requests slower \
                than MS milliseconds.")
  in
  let lateness_arg =
    Arg.(
      value
      & opt float Serve.Server.default_config.Serve.Server.live_lateness
      & info [ "lateness" ] ~docv:"HOURS"
          ~doc:"Out-of-order window for POST /observe streams: votes \
                older than the story's watermark minus HOURS are \
                dropped (and counted as live.dropped_late).")
  in
  let drift_arg =
    Arg.(
      value
      & opt float Serve.Server.default_config.Serve.Server.drift_threshold
      & info [ "drift-threshold" ] ~docv:"ERR"
          ~doc:"Mean relative error of the serving fit against the \
                live profile beyond which the daemon schedules a \
                warm-started refit.")
  in
  let refit_min_votes_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.refit_min_votes
      & info [ "refit-min-votes" ] ~docv:"N"
          ~doc:"Profile votes required before the refit daemon fits a \
                story at all.")
  in
  let refit_min_new_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.refit_min_new_votes
      & info [ "refit-min-new-votes" ] ~docv:"N"
          ~doc:"Votes that must have arrived since the serving fit \
                before drift may trigger a refit.")
  in
  let live_seed_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.live_seed
      & info [ "live-seed" ] ~docv:"SEED"
          ~doc:"Rng seed for daemon fits (fixed, so refits are \
                reproducible offline).")
  in
  let graph_arg =
    Arg.(
      value
      & opt (some scale_conv) None
      & info [ "graph" ] ~docv:"SCALE"
          ~doc:"Build a synthetic Digg influence graph at SCALE \
                (small|medium|full) so POST /observe can resolve hop \
                distances for votes that carry none (the first batch \
                must then name the story's initiator).")
  in
  let graph_seed_arg =
    Arg.(
      value & opt int 7
      & info [ "graph-seed" ] ~docv:"SEED"
          ~doc:"Seed for the --graph corpus (must match the replay \
                driver's --seed for hop labels to agree).")
  in
  let run obs port host max_conns idle_timeout jobs store_dir slow_ms lateness
      drift_threshold refit_min_votes refit_min_new_votes live_seed graph
      graph_seed =
   (* the server owns the OTLP exporter (serve-side metrics snapshots
      must read the request aggregate), so skip the CLI-level one *)
   with_obs ~otlp:false obs @@ fun () ->
    let jobs =
      match jobs with Some j -> j | None -> Parallel.Pool.default_jobs ()
    in
    let graph =
      Option.map
        (fun scale ->
          (Socialnet.Digg.build ~scale ~seed:graph_seed ()).Socialnet.Digg
            .dataset)
        graph
    in
    let config =
      {
        Serve.Server.default_config with
        Serve.Server.host;
        port;
        jobs;
        max_conns;
        idle_timeout;
        store_dir;
        slow_request_ms = slow_ms;
        otlp_endpoint = obs.otlp_endpoint;
        otlp_sample_rate = obs.otlp_sample_rate;
        live_lateness = lateness;
        drift_threshold;
        refit_min_votes;
        refit_min_new_votes;
        live_seed;
        graph;
      }
    in
    let server =
      try Serve.Server.create ~config ()
      with Invalid_argument msg ->
        prerr_endline ("dlosn serve: " ^ msg);
        exit 1
    in
    Serve.Server.install_signal_handlers server;
    Format.printf "dlosn serving on http://%s:%d (%d worker%s) — SIGINT or \
                   SIGTERM drains and exits@."
      host
      (Serve.Server.port server)
      jobs
      (if jobs = 1 then "" else "s");
    Format.print_flush ();
    Serve.Server.run server;
    Format.printf "served %d requests@." (Serve.Server.requests_handled server)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve DL-model fits and predictions over HTTP \
             (/healthz, /metrics, /fit, /predict, /observe, /live, \
             /debug/traces, /debug/flame).")
    Term.(
      const run $ obs_term $ port_arg $ host_arg $ max_conns_arg
      $ idle_timeout_arg $ jobs_arg $ serve_store_arg $ slow_ms_arg
      $ lateness_arg $ drift_arg $ refit_min_votes_arg $ refit_min_new_arg
      $ live_seed_arg $ graph_arg $ graph_seed_arg)

(* --- replay: stream a simulated cascade into a live server --- *)

module Tiny_json = Serve.Tiny_json

let replay_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port of the dlosn server to stream into (loopback).")
  in
  let speedup_arg =
    Arg.(
      value & opt float 3600.
      & info [ "speedup" ] ~docv:"X"
          ~doc:"Event-time compression: one hour of cascade time plays \
                back in 3600/X seconds (default 3600 — an hour per \
                second).  Use $(b,inf) to stream with no pacing.")
  in
  let batch_arg =
    Arg.(
      value & opt int 25
      & info [ "batch" ] ~docv:"N"
          ~doc:"Votes per POST /observe request.")
  in
  let from_arg =
    Arg.(
      value & opt float 0.
      & info [ "from" ] ~docv:"HOURS"
          ~doc:"Skip votes before this event time — resume a stream \
                past a restarted server's persisted observation \
                cursor (printed by the server's live.resumed log).")
  in
  let story_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "story" ] ~docv:"NAME"
          ~doc:"Story key for the stream (default replay-SEED).")
  in
  let run scale seed port speedup batch from story =
    if batch < 1 then begin
      prerr_endline "dlosn replay: --batch must be >= 1";
      exit 1
    end;
    if not (speedup > 0.) then begin
      prerr_endline "dlosn replay: --speedup must be positive";
      exit 1
    end;
    let stream = Socialnet.Replay.simulate ~scale ~seed () in
    let story = match story with Some s -> s | None -> Printf.sprintf "replay-%d" seed in
    let events =
      Array.of_list
        (List.filter
           (fun (e : Socialnet.Replay.event) -> e.Socialnet.Replay.time >= from)
           (Array.to_list stream.Socialnet.Replay.events))
    in
    Format.printf
      "replaying %d votes (of %d simulated) into story %S on port %d@."
      (Array.length events)
      (Array.length stream.Socialnet.Replay.events)
      story port;
    Format.print_flush ();
    let conn =
      match Serve.Client.connect ~timeout:30. ~port () with
      | Ok c -> c
      | Error msg ->
        prerr_endline ("dlosn replay: connect failed: " ^ msg);
        exit 1
    in
    let vote_json (e : Socialnet.Replay.event) =
      Tiny_json.Object
        [
          ("voter", Tiny_json.Number (float_of_int e.Socialnet.Replay.voter));
          ("time", Tiny_json.Number e.Socialnet.Replay.time);
          ("distance", Tiny_json.Number (float_of_int e.Socialnet.Replay.distance));
        ]
    in
    let num_array a = Tiny_json.List (List.map (fun v -> Tiny_json.Number v) (Array.to_list a)) in
    let n = Array.length events in
    let ingested = ref 0 and refits = ref 0 and batches = ref 0 in
    let clock = ref from in
    let i = ref 0 in
    while !i < n do
      let j = min n (!i + batch) in
      let votes = Array.to_list (Array.sub events !i (j - !i)) in
      let last_t = events.(j - 1).Socialnet.Replay.time in
      (* pace the stream: sleep the compressed event-time gap *)
      let gap = last_t -. !clock in
      if gap > 0. && Float.is_finite speedup then
        Unix.sleepf (gap *. 3600. /. speedup);
      clock := Float.max !clock last_t;
      let body_fields =
        [
          ("story", Tiny_json.String story);
          ("votes", Tiny_json.List (List.map vote_json votes));
        ]
        @
        (* grid fields ride along on the first batch only *)
        if !batches = 0 then
          [
            ("times", num_array stream.Socialnet.Replay.times);
            ( "population",
              num_array
                (Array.map float_of_int stream.Socialnet.Replay.population) );
            ( "max_distance",
              Tiny_json.Number
                (float_of_int stream.Socialnet.Replay.max_distance) );
          ]
        else []
      in
      let body = Tiny_json.to_string (Tiny_json.Object body_fields) in
      (match Serve.Client.request_on conn ~body "POST" "/observe" with
      | Error msg ->
        prerr_endline ("dlosn replay: /observe failed: " ^ msg);
        exit 1
      | Ok { Serve.Client.status; body; _ } when status <> 200 ->
        prerr_endline
          (Printf.sprintf "dlosn replay: /observe returned %d: %s" status body);
        exit 1
      | Ok { Serve.Client.body; _ } ->
        incr batches;
        (match Tiny_json.parse body with
        | Ok json ->
          (match Option.bind (Tiny_json.member "ingested" json) Tiny_json.to_int with
          | Some k -> ingested := !ingested + k
          | None -> ());
          (match Tiny_json.member "refit_scheduled" json with
          | Some (Tiny_json.Bool true) ->
            incr refits;
            Format.printf "  t=%.2fh: refit scheduled (%d votes in)@."
              last_t !ingested;
            Format.print_flush ()
          | _ -> ())
        | Error _ -> ()));
      i := j
    done;
    (* final status: what the daemon made of the stream *)
    (match Serve.Client.request_on conn "GET" ("/live?story=" ^ story) with
    | Ok { Serve.Client.status = 200; body; _ } ->
      Format.printf "final /live: %s@." body
    | Ok { Serve.Client.status; _ } ->
      Format.printf "final /live returned %d@." status
    | Error msg -> Format.printf "final /live failed: %s@." msg);
    Serve.Client.close conn;
    Format.printf
      "replayed %d batches, %d votes ingested, %d refits scheduled@."
      !batches !ingested !refits
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Stream a simulated Digg cascade into a running dlosn \
             server's POST /observe endpoint at a configurable \
             speedup, driving the incremental density profile and the \
             online refit daemon end to end.")
    Term.(
      const run $ scale_arg $ seed_arg $ port_arg $ speedup_arg $ batch_arg
      $ from_arg $ story_arg)

(* --- store --- *)

let store_dir_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Model store directory.")

let created_string ns =
  let tm = Unix.localtime (float_of_int ns /. 1e9) in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let load_store_or_warn dir =
  let records, info = Store.load dir in
  (match info.Store.corruption with
  | Some msg ->
    Format.eprintf "warning: partial recovery — %s (%d bytes dropped)@." msg
      info.Store.dropped_bytes
  | None -> ());
  (records, info)

let record_json (r : Store.Format.record) =
  let module J = Serve.Tiny_json in
  let num v = J.Number v in
  let arr f xs = J.List (Array.to_list (Array.map f xs)) in
  let growth =
    match r.Store.Format.params.Dl.Params.r with
    | Dl.Growth.Constant v ->
      J.Object [ ("kind", J.String "constant"); ("value", num v) ]
    | Dl.Growth.Exp_decay { a; b; c } ->
      J.Object
        [
          ("kind", J.String "exp_decay");
          ("a", num a);
          ("b", num b);
          ("c", num c);
        ]
  in
  let p = r.Store.Format.params in
  J.Object
    [
      ("id", J.String r.Store.Format.id);
      ("story", J.String r.Store.Format.story);
      ("source", J.String r.Store.Format.source);
      ("model", J.String r.Store.Format.model);
      ("created_ns", num (float_of_int r.Store.Format.created_ns));
      ( "params",
        J.Object
          [
            ("d", num p.Dl.Params.d);
            ("k", num p.Dl.Params.k);
            ("r", growth);
            ("l", num p.Dl.Params.l);
            ("L", num p.Dl.Params.big_l);
          ] );
      ( "phi",
        J.Object
          [
            ("xs", arr num r.Store.Format.phi_xs);
            ("densities", arr num r.Store.Format.phi_densities);
          ] );
      ("scheme", J.String (Store.Format.scheme_name r.Store.Format.scheme));
      ("nx", num (float_of_int r.Store.Format.nx));
      ("dt", num r.Store.Format.dt);
      ("reference_stepper", J.Bool r.Store.Format.reference_stepper);
      ("fit_times", arr num r.Store.Format.fit_times);
      ("training_error", num r.Store.Format.training_error);
      ("evaluations", num (float_of_int r.Store.Format.evaluations));
      ("starts", num (float_of_int r.Store.Format.starts));
    ]

let store_cmd =
  let ls_cmd =
    let run dir =
      let records, info = load_store_or_warn dir in
      Format.printf "%d record%s (%d from snapshot, %d from wal)@."
        (List.length records)
        (if List.length records = 1 then "" else "s")
        info.Store.snapshot_records info.Store.wal_records;
      List.iter
        (fun (r : Store.Format.record) ->
          Format.printf
            "  %-34s %-10s %-9s %-6s %s  %-14s nx=%-4d dt=%-5g err=%.4g@."
            r.Store.Format.id
            (if r.Store.Format.story = "" then "-" else r.Store.Format.story)
            r.Store.Format.model r.Store.Format.source
            (created_string r.Store.Format.created_ns)
            (Store.Format.scheme_name r.Store.Format.scheme)
            r.Store.Format.nx r.Store.Format.dt r.Store.Format.training_error)
        records
    in
    Cmd.v
      (Cmd.info "ls" ~doc:"List the fit records in a model store.")
      Term.(const run $ store_dir_pos)
  in
  let find_record records id =
    let exact =
      List.filter (fun (r : Store.Format.record) -> r.Store.Format.id = id)
        records
    in
    let matches =
      if exact <> [] then exact
      else
        List.filter
          (fun (r : Store.Format.record) ->
            String.length id > 0
            && String.starts_with ~prefix:id r.Store.Format.id)
          records
    in
    match matches with
    | [ r ] -> Ok r
    | [] -> Error (Printf.sprintf "no record matches %S" id)
    | _ :: _ ->
      Error (Printf.sprintf "%d records match %S; use the full id"
               (List.length matches) id)
  in
  let show_cmd =
    let id_arg =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"ID" ~doc:"Record id (or a unique prefix of one).")
    in
    let run dir id =
      let records, _ = load_store_or_warn dir in
      match find_record records id with
      | Error msg ->
        prerr_endline ("dlosn store show: " ^ msg);
        exit 1
      | Ok r ->
        Format.printf "id:              %s@." r.Store.Format.id;
        Format.printf "story:           %s@."
          (if r.Store.Format.story = "" then "-" else r.Store.Format.story);
        Format.printf "model:           %s@." r.Store.Format.model;
        Format.printf "source:          %s@." r.Store.Format.source;
        Format.printf "created:         %s@."
          (created_string r.Store.Format.created_ns);
        Format.printf "params:          %a@." Dl.Params.pp r.Store.Format.params;
        Format.printf "phi knots:       %d@."
          (Array.length r.Store.Format.phi_xs);
        Format.printf "solver:          %s, nx=%d, dt=%g%s@."
          (Store.Format.scheme_name r.Store.Format.scheme)
          r.Store.Format.nx r.Store.Format.dt
          (if r.Store.Format.reference_stepper then ", reference stepper" else "");
        Format.printf "fit times:       %s@."
          (String.concat ", "
             (Array.to_list
                (Array.map (Printf.sprintf "%g") r.Store.Format.fit_times)));
        Format.printf "training error:  %.6g@." r.Store.Format.training_error;
        Format.printf "evaluations:     %d (over %d starts)@."
          r.Store.Format.evaluations r.Store.Format.starts
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Print one record in full.")
      Term.(const run $ store_dir_pos $ id_arg)
  in
  let export_cmd =
    let out_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "out" ] ~docv:"FILE"
            ~doc:"Write to FILE instead of standard output.")
    in
    let run dir out =
      let records, _ = load_store_or_warn dir in
      let lines =
        List.map
          (fun r -> Serve.Tiny_json.to_string (record_json r))
          records
      in
      let text = String.concat "\n" lines ^ if lines = [] then "" else "\n" in
      match out with
      | None -> print_string text
      | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Format.printf "exported %d records to %s@." (List.length records) path
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:"Dump every record as JSON lines (params, phi knots, \
               solver config, accuracy).")
      Term.(const run $ store_dir_pos $ out_arg)
  in
  let gc_cmd =
    let duration_conv =
      (* 30s / 45m / 12h / 7d, or a bare number of seconds *)
      let parse s =
        let fail () =
          Error
            (`Msg
               (Printf.sprintf
                  "invalid duration %S (expected e.g. 30s, 45m, 12h, 7d)" s))
        in
        if s = "" then fail ()
        else
          let n = String.length s in
          let unit_scale = function
            | 's' -> Some 1.
            | 'm' -> Some 60.
            | 'h' -> Some 3600.
            | 'd' -> Some 86400.
            | _ -> None
          in
          let num, scale =
            match unit_scale s.[n - 1] with
            | Some k -> (String.sub s 0 (n - 1), k)
            | None -> (s, 1.)
          in
          match float_of_string_opt num with
          | Some v when v >= 0. -> Ok (v *. scale)
          | Some _ | None -> fail ()
      in
      let print ppf secs = Format.fprintf ppf "%gs" secs in
      Arg.conv (parse, print)
    in
    let keep_last_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "keep-last" ] ~docv:"N"
            ~doc:"Retention: drop all but the newest N records before \
                  compacting.")
    in
    let max_age_arg =
      Arg.(
        value
        & opt (some duration_conv) None
        & info [ "max-age" ] ~docv:"DUR"
            ~doc:"Retention: drop records older than DUR (e.g. \
                  $(b,30s), $(b,45m), $(b,12h), $(b,7d); a bare number \
                  is seconds) before compacting.")
    in
    let run dir keep_last max_age =
      (match keep_last with
      | Some k when k < 0 ->
        prerr_endline "dlosn store gc: --keep-last must be >= 0";
        exit 1
      | _ -> ());
      let store = Store.open_ ~source:"cli" dir in
      let before_records = Store.record_count store in
      let before = Store.wal_bytes store in
      let max_age_ns =
        Option.map (fun secs -> int_of_float (secs *. 1e9)) max_age
      in
      Store.gc ?keep_last ?max_age_ns store;
      let after_records = Store.record_count store in
      Format.printf "compacted %d record%s (wal %d -> %d bytes%s)@."
        after_records
        (if after_records = 1 then "" else "s")
        before (Store.wal_bytes store)
        (if before_records > after_records then
           Printf.sprintf ", dropped %d" (before_records - after_records)
         else "");
      Store.close store
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Compact — fold the WAL into a fresh snapshot and truncate \
               it — optionally applying retention first \
               ($(b,--keep-last), $(b,--max-age)).")
      Term.(const run $ store_dir_pos $ keep_last_arg $ max_age_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain persistent model stores ($(b,ls), \
             $(b,show), $(b,export), $(b,gc)).")
    [ ls_cmd; show_cmd; export_cmd; gc_cmd ]

(* --- tournament --- *)

let tournament_cmd =
  let models_conv =
    let parse s =
      let names =
        List.filter (fun m -> m <> "") (String.split_on_char ',' s)
      in
      match names with
      | [] -> Error (`Msg "expected a comma-separated list of model names")
      | _ -> (
        match
          List.find_opt (fun m -> Dl.Predictor.find m = None) names
        with
        | Some m ->
          Error
            (`Msg
               (Printf.sprintf "unknown model %S (registered: %s)" m
                  (String.concat ", " (Dl.Predictor.names ()))))
        | None -> Ok names)
    in
    let print ppf ms = Format.pp_print_string ppf (String.concat "," ms) in
    Arg.conv (parse, print)
  in
  let models_arg =
    Arg.(
      value
      & opt (some models_conv) None
      & info [ "models" ] ~docv:"NAMES"
          ~doc:"Comma-separated registry models to enter.  Defaults to \
                every built-in except $(b,network) (which needs graph \
                context the tournament's density observations cannot \
                supply).  $(b,--list) prints the registry.")
  in
  let stories_arg =
    Arg.(
      value & opt int 4
      & info [ "n"; "stories" ] ~docv:"N"
          ~doc:"Number of synthetic stories in the shared ground-truth \
                set (DL solves under randomly drawn parameters, plus \
                observation noise).")
  in
  let tseed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Tournament seed: per-(model, story) fitting seeds derive \
                from it deterministically, independent of $(b,--jobs).")
  in
  let story_seed_arg =
    Arg.(
      value & opt int 7
      & info [ "story-seed" ] ~docv:"SEED"
          ~doc:"Seed for drawing the synthetic story parameters.")
  in
  let fit_times_conv =
    let parse s =
      let parts = List.filter (fun p -> p <> "") (String.split_on_char ',' s) in
      try
        let ts = List.map float_of_string parts in
        if ts = [] then Error (`Msg "expected at least one hour")
        else if List.exists (fun t -> t <= 1.) ts then
          Error (`Msg "calibration hours must be > 1 (t = 1 seeds phi)")
        else Ok (Array.of_list ts)
      with Failure _ -> Error (`Msg "expected comma-separated hours")
    in
    let print ppf ts =
      Format.pp_print_string ppf
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%g") ts)))
    in
    Arg.conv (parse, print)
  in
  let fit_times_arg =
    Arg.(
      value
      & opt fit_times_conv [| 2.; 3. |]
      & info [ "fit-times" ] ~docv:"HOURS"
          ~doc:"Calibration hours (comma-separated, beyond the t = 1 \
                snapshot); every later observed hour is held out for \
                the accuracy ranking.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the leaderboard as JSON (schema \
                dlosn-tournament/1) instead of a table.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the leaderboard JSON to FILE.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List the registered models with their descriptions and \
                exit (no tournament runs).")
  in
  let run obs list_only models n tseed story_seed fit_times json out jobs =
    with_obs obs @@ fun () ->
    if list_only then
      List.iter
        (fun (p : Dl.Predictor.t) ->
          Format.printf "%-14s %s@." p.Dl.Predictor.name
            p.Dl.Predictor.description)
        (Dl.Predictor.all ())
    else begin
      let pool = pool_of_jobs jobs in
      let models =
        match models with Some ms -> ms | None -> Dl.Tournament.default_models
      in
      let stories = Dl.Tournament.synthetic_stories ~n ~seed:story_seed () in
      Format.eprintf "tournament: %d models x %d stories (%d worker%s)@."
        (List.length models) n
        (Parallel.Pool.jobs pool)
        (if Parallel.Pool.jobs pool = 1 then "" else "s");
      let lb =
        Obs_progress.with_bar ~label:"tournament"
          ~total:(List.length models * List.length stories)
          ~span:"tournament.item"
        @@ fun () ->
        Dl.Tournament.run ~pool ~fit_times ~seed:tseed ~models stories
      in
      (match out with
      | Some path ->
        let oc = open_out path in
        output_string oc (Dl.Tournament.json_string lb);
        close_out oc;
        Format.eprintf "leaderboard written to %s@." path
      | None -> ());
      if json then print_string (Dl.Tournament.json_string lb)
      else Format.printf "%a" Dl.Tournament.pp lb
    end
  in
  Cmd.v
    (Cmd.info "tournament"
       ~doc:"Fit every registry model on a shared synthetic story set \
             and rank them on held-out accuracy (the paper's \
             DL-vs-baselines comparison at model-zoo scale).  \
             Accuracy fields are bit-identical for any $(b,--jobs); \
             only wall-clock latencies vary.")
    Term.(
      const run $ obs_term $ list_arg $ models_arg $ stories_arg $ tseed_arg
      $ story_seed_arg $ fit_times_arg $ json_arg $ out_arg $ jobs_arg)

let () =
  let doc = "diffusive-logistic information diffusion in online social networks" in
  let info = Cmd.info "dlosn" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; characterize_cmd; predict_cmd; properties_cmd;
            sweep_cmd; batch_cmd; stats_cmd; serve_cmd; replay_cmd;
            store_cmd; tournament_cmd ]))
