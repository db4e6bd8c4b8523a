open Socialnet

type metric =
  | Hops of { max_distance : int }
  | Interest of { n_groups : int; grouping : Distance.grouping }

let hops = Hops { max_distance = 6 }
let interest = Interest { n_groups = 5; grouping = Distance.Equal_width }

type param_choice =
  | Paper
  | Auto of { rng : Numerics.Rng.t; config : Fit.config }
  | Given of Params.t

type experiment = {
  story : Types.story;
  metric : metric;
  assignment : int array;
  observation : Density.t;
  phi : Initial.t;
  params : Params.t;
  fit_error : float option;
  solution : Model.solution;
  table : Accuracy.table;
}

let with_t1 times =
  if Array.length times > 0 && Float.abs (times.(0) -. 1.) < 1e-9 then times
  else Array.append [| 1. |] times

let observe ds ~story ~metric ~times =
  let assignment, max_distance =
    match metric with
    | Hops { max_distance } ->
      (Distance.friendship_hops ds ~story, max_distance)
    | Interest { n_groups; grouping } ->
      (Distance.interest_groups ~n_groups ~grouping ds ~story, n_groups)
  in
  let obs =
    Density.observe story ~assignment ~max_distance ~times:(with_t1 times)
  in
  (assignment, obs)

(* Drop trailing empty distance groups (e.g. a story that never reaches
   hop 6): phi and the PDE domain should span observed groups only. *)
let trim_empty_groups (obs : Density.t) =
  let last = ref (Array.length obs.Density.distances - 1) in
  while !last > 0 && obs.Density.population.(!last) = 0 do
    decr last
  done;
  let keep = !last + 1 in
  {
    Density.distances = Array.sub obs.Density.distances 0 keep;
    times = obs.Density.times;
    density = Array.sub obs.Density.density 0 keep;
    population = Array.sub obs.Density.population 0 keep;
  }

let default_predict_times = [| 2.; 3.; 4.; 5.; 6. |]

let m_runs = Obs.Metrics.counter "pipeline.runs"

type prepared = {
  pr_story : Types.story;
  pr_metric : metric;
  pr_assignment : int array;
  pr_observation : Density.t;
  pr_phi : Initial.t;
  pr_l : float;
  pr_big_l : float;
  pr_times : float array;
}

let prepare ?(predict_times = default_predict_times)
    ?(construction = `Cubic_spline) ds ~story ~metric =
  let assignment, obs_raw = observe ds ~story ~metric ~times:predict_times in
  let obs = trim_empty_groups obs_raw in
  let distances = obs.Density.distances in
  if Array.length distances < 2 then
    invalid_arg "Pipeline.run: need at least two non-empty distance groups";
  let xs = Array.map float_of_int distances in
  let densities = Array.map (fun row -> row.(0)) obs.Density.density in
  let phi = Initial.of_observations_with ~construction ~xs ~densities in
  {
    pr_story = story;
    pr_metric = metric;
    pr_assignment = assignment;
    pr_observation = obs;
    pr_phi = phi;
    pr_l = xs.(0);
    pr_big_l = xs.(Array.length xs - 1);
    pr_times = predict_times;
  }

let paper_params pre =
  let base =
    match pre.pr_metric with
    | Hops _ -> Params.paper_hops
    | Interest _ -> Params.paper_interest
  in
  Params.with_domain base ~l:pre.pr_l ~big_l:pre.pr_big_l

let finish pre ~params ~fit_error ~solution =
  Obs.Metrics.incr m_runs;
  let obs = pre.pr_observation in
  let table =
    Accuracy.table
      ~predict:(fun ~x ~t -> Model.predict solution ~x:(float_of_int x) ~t)
      ~actual:(fun ~x ~t -> Density.at obs ~distance:x ~time:t)
      ~distances:obs.Density.distances ~times:pre.pr_times
  in
  Obs.Log.debug "pipeline.run" ~fields:(fun () ->
      [
        Obs.Log.int "story" pre.pr_story.Types.id;
        Obs.Log.float "overall" table.Accuracy.overall_average;
        Obs.Log.float "fit_error"
          (match fit_error with None -> nan | Some e -> e);
      ]);
  {
    story = pre.pr_story;
    metric = pre.pr_metric;
    assignment = pre.pr_assignment;
    observation = obs;
    phi = pre.pr_phi;
    params;
    fit_error;
    solution;
    table;
  }

let run ?(params = Paper) ?(pool = Parallel.Pool.sequential)
    ?(predict_times = default_predict_times)
    ?(construction = `Cubic_spline) ?fit_id ?fit_init ?on_fit ds ~story
    ~metric =
 Obs.Span.with_span "pipeline.run"
   ~attrs:(fun () -> [ Obs.Log.int "story" story.Types.id ])
 @@ fun () ->
  let pre = prepare ~predict_times ~construction ds ~story ~metric in
  let chosen, fit_error =
    match params with
    | Given p -> (Params.with_domain p ~l:pre.pr_l ~big_l:pre.pr_big_l, None)
    | Paper -> (paper_params pre, None)
    | Auto { rng; config } ->
      (* label the fit with the story so store checkpoints are
         self-describing (overridable via [fit_id]) *)
      let id =
        match fit_id with
        | Some i -> i
        | None -> "story-" ^ string_of_int story.Types.id
      in
      let r =
        Fit.fit ~config ~pool ~id ?init:fit_init ?on_fit ~phi:pre.pr_phi rng
          pre.pr_observation
      in
      (r.Fit.params, Some r.Fit.training_error)
  in
  let solution = Model.solve chosen ~phi:pre.pr_phi ~times:predict_times in
  finish pre ~params:chosen ~fit_error ~solution

let baseline_table exp ~baseline =
  Accuracy.table
    ~predict:(fun ~x ~t -> baseline ~x ~t)
    ~actual:(fun ~x ~t ->
      Density.at exp.observation ~distance:x ~time:t)
    ~distances:exp.observation.Density.distances
    ~times:exp.table.Accuracy.times
