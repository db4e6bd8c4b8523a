(* calibrate: the analyst's "fit this story" path, in process.

   The corpus is the fixed medium synthetic Digg corpus (seed 7).  The
   item list is its six highest-voted stories that have at least two
   distance groups under both metrics, each calibrated under both
   distance metrics and both fit windows: 24 items.  The run seed sets
   the order of the items and the random restarts of each fit, so every
   seed does the same kind of work and a run's time does not depend on
   which stories a seed happened to draw.  Each pass calibrates every
   item once; later passes must reproduce the first bit for bit. *)

open Common

let corpus_seed = 7
let top_n = 24
let n_stories = 6
let jobs = 2

let metrics = [ ("hops", Dl.Pipeline.hops); ("interest", Dl.Pipeline.interest) ]

let windows =
  [ ("t2-4", Dl.Fit.default_config.Dl.Fit.fit_times); ("t2-6", [| 2.; 3.; 4.; 5.; 6. |]) ]

type item = {
  story : Socialnet.Types.story;
  metric_name : string;
  metric : Dl.Pipeline.metric;
  window : string;
  fit_times : float array;
  rng_seed : int;
}

type env = {
  ds : Socialnet.Dataset.t;
  items : item array;
  pool : Parallel.Pool.t;
  build_s : float;
  mutable first : Dl.Pipeline.experiment option;  (* micro-benchmark input *)
  mutable reference : string array option;  (* per-item digests of pass 1 *)
}

let setup ~seed =
  let t0 = now () in
  let corpus =
    Socialnet.Digg.build ~scale:Socialnet.Digg.medium ~seed:corpus_seed ()
  in
  let build_s = now () -. t0 in
  let ds = corpus.Socialnet.Digg.dataset in
  let valid story (_, metric) =
    match Dl.Pipeline.prepare ds ~story ~metric with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  let chosen =
    Array.fold_left
      (fun acc story ->
        if List.length acc < n_stories && List.for_all (valid story) metrics
        then story :: acc
        else acc)
      []
      (Dl.Batch.top_stories ds ~n:top_n)
    |> List.rev
  in
  if List.length chosen < n_stories then
    failwith "calibrate: too few valid stories in the corpus";
  let st = Random.State.make [| seed; 0xca1 |] in
  let items =
    List.concat_map
      (fun story ->
        List.concat_map
          (fun (metric_name, metric) ->
            List.map
              (fun (window, fit_times) ->
                {
                  story;
                  metric_name;
                  metric;
                  window;
                  fit_times;
                  rng_seed = Random.State.bits st;
                })
              windows)
          metrics)
      chosen
    |> Array.of_list
  in
  shuffle st items;
  {
    ds;
    items;
    pool = Parallel.Pool.create ~jobs ();
    build_s;
    first = None;
    reference = None;
  }

let digest (p : Dl.Params.t) = Digest.to_hex (Digest.string (Marshal.to_string p []))

(* Library counters read around each story when traced. *)
let c name = Obs.Metrics.counter name
let busy = List.init jobs (fun k -> Obs.Metrics.counter ~label:(string_of_int k) "pool.busy_ns")
let h name = Obs.Metrics.histogram name
let imbalance = Obs.Metrics.gauge "pool.imbalance"

type snap = {
  evals : int;
  hits : int;
  nm_iters : int;
  solves : int;
  solve_ns : float;
  panel_ns : float;
  busy_ns : int;
}

let snap () =
  {
    evals = Obs.Metrics.counter_value (c "fit.objective_evals");
    hits = Obs.Metrics.counter_value (c "fit.objective_cache_hits");
    nm_iters = Obs.Metrics.counter_value (c "optimize.nm_iterations");
    solves = Obs.Metrics.counter_value (c "pde.solves");
    solve_ns = Obs.Metrics.histogram_sum (h "pde.solve_ns");
    panel_ns = Obs.Metrics.histogram_sum (h "pde.panel_solve_ns");
    busy_ns = List.fold_left (fun a k -> a + Obs.Metrics.counter_value k) 0 busy;
  }

let span_dur (s : Obs.Span.t) = float_of_int s.Obs.Span.dur_ns *. 1e-9

(* The library's own spans, folded to (stack, self ns), for the dump. *)
let folded : (string, int) Hashtbl.t = Hashtbl.create 16

(* Wall-time split of one traced story.  The fit's restarts run on
   [jobs] domains at once, so the parallel section's wall time is split
   by CPU time / jobs, and what the domains leave idle (spawn, join,
   imbalance) is charged to the pool. *)
let split_story ~story_s ~(d : snap) =
  let roots = Obs.Span.roots () in
  Obs.Span.reset ();
  List.iter
    (fun (path, ns) ->
      Hashtbl.replace folded path
        (ns + Option.value ~default:0 (Hashtbl.find_opt folded path)))
    (Obs.Span.fold_stacks roots);
  let find name l = List.find_opt (fun s -> s.Obs.Span.name = name) l in
  match find "pipeline.run" roots with
  | None -> None
  | Some p ->
    let pipeline = span_dur p in
    let fit, restarts =
      match find "fit.fit" p.Obs.Span.children with
      | None -> (0., 0.)
      | Some f ->
        ( span_dur f,
          List.fold_left
            (fun a s ->
              if s.Obs.Span.name = "fit.restart" then a +. span_dur s else a)
            0. f.Obs.Span.children )
    in
    let j = float_of_int jobs in
    let solve = d.solve_ns *. 1e-9 and panel = d.panel_ns *. 1e-9 in
    Some
      [
        ("perfbench.harness", story_s -. pipeline);
        ("core.pipeline", pipeline -. fit -. solve);
        ("numerics.pde", solve +. (panel /. j));
        ("core.fit", (restarts -. panel) /. j);
        ("parallel.pool", fit -. (restarts /. j));
      ]

let share_names =
  [ "perfbench.harness"; "core.pipeline"; "numerics.pde"; "core.fit"; "parallel.pool" ]

let run_pass env ~traced =
  let t = tally () in
  let n = Array.length env.items in
  let lat = Array.make n nan in
  let digests = Array.make n "" in
  let evals = ref 0 in
  if traced then Obs.set_enabled true;
  Obs.Span.reset ();
  let s0 = snap () in
  let shares = Hashtbl.create 8 in
  let imb = ref 0. in
  let t_start = now () in
  Array.iteri
    (fun i it ->
      check_deadline "calibrate";
      let what =
        Printf.sprintf "story %d %s %s" it.story.Socialnet.Types.id
          it.metric_name it.window
      in
      attempt t what (fun () ->
          let before = if traced then Some (snap ()) else None in
          let t0 = now () in
          let exp =
            Spans.with_ ~op:(i + 1) "calibrate.story" (fun parent ->
                Spans.with_ ~parent ~op:(i + 1) "core.pipeline.run" (fun _ ->
                    Dl.Pipeline.run ~pool:env.pool
                      ~params:
                        (Dl.Pipeline.Auto
                           {
                             rng = Numerics.Rng.create it.rng_seed;
                             config =
                               {
                                 Dl.Fit.default_config with
                                 Dl.Fit.fit_times = it.fit_times;
                               };
                           })
                      ~on_fit:(fun ev ->
                        evals := !evals + ev.Dl.Fit.ev_result.Dl.Fit.evaluations)
                      env.ds ~story:it.story ~metric:it.metric))
          in
          let story_s = now () -. t0 in
          lat.(i) <- story_s *. 1e3;
          (match before with
          | None -> ()
          | Some b -> (
            let a = snap () in
            imb :=
              !imb +. Option.value ~default:1. (Obs.Metrics.gauge_value imbalance);
            let d =
              {
                a with
                solve_ns = a.solve_ns -. b.solve_ns;
                panel_ns = a.panel_ns -. b.panel_ns;
              }
            in
            match split_story ~story_s ~d with
            | None -> ()
            | Some parts ->
              List.iter
                (fun (k, v) ->
                  Hashtbl.replace shares k
                    (v +. Option.value ~default:0. (Hashtbl.find_opt shares k)))
                parts));
          if env.first = None then env.first <- Some exp;
          digests.(i) <- digest exp.Dl.Pipeline.params;
          match exp.Dl.Pipeline.fit_error with
          | Some e when Float.is_finite e -> Ok ()
          | Some e -> Error (Printf.sprintf "training error %g" e)
          | None -> Error "no training error"))
    env.items;
  let wall = now () -. t_start in
  let s1 = snap () in
  if traced then begin
    Obs.set_enabled false;
    ignore (Spans.take ())
  end;
  (* every repeat of an item must reproduce its first fit exactly *)
  (match env.reference with
  | None -> env.reference <- Some digests
  | Some ref_ ->
    Array.iteri
      (fun i d ->
        if d <> ref_.(i) then begin
          t.attempted <- t.attempted + 1;
          fail t (Printf.sprintf "item %d: parameters differ from pass 1" i)
        end)
      digests);
  let all = Digest.to_hex (Digest.string (String.concat "" (Array.to_list digests))) in
  let fn = float_of_int n in
  let layers =
    if not traced then []
    else
      let evals_d = float_of_int (s1.evals - s0.evals) in
      [
        ("numerics.optimize.nm_iterations", float_of_int (s1.nm_iters - s0.nm_iters) /. fn);
        ("core.fit.evaluations", evals_d /. fn);
        ( "core.fit.objective_cache_hit_ratio",
          if evals_d > 0. then float_of_int (s1.hits - s0.hits) /. evals_d else 0. );
        ( "parallel.pool.busy_share",
          float_of_int (s1.busy_ns - s0.busy_ns) *. 1e-9 /. (float_of_int jobs *. wall) );
        ("parallel.pool.imbalance", !imb /. fn);
      ]
      @ List.map
          (fun k ->
            ( "calibrate.share." ^ k ^ "_pct",
              pct (Option.value ~default:0. (Hashtbl.find_opt shares k)) wall ))
          share_names
      @ [
          ( "calibrate.unattributed_pct",
            100.
            -. List.fold_left
                 (fun a k ->
                   a +. pct (Option.value ~default:0. (Hashtbl.find_opt shares k)) wall)
                 0. share_names );
        ]
  in
  {
    lat_ms = lat;
    units = fn;
    wall_s = wall;
    attempted = t.attempted;
    failed = t.failed;
    errors = List.rev t.errors;
    work =
      [
        ("stories", string_of_int n);
        ("fit_evaluations", string_of_int !evals);
        ("params_md5", all);
      ]
      @ (if traced then [ ("pde_solves", string_of_int (s1.solves - s0.solves)) ] else []);
    observed = [];
    refresh_ms = [||];
    layers;
  }
