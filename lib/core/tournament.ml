open Numerics

type entry = {
  e_model : string;
  e_ok : bool;
  e_error : string option;
  e_mean_rel_err : float;
  e_training_error : float;
  e_per_story : float array;
  e_fit_ms : float;
  e_predict_ms : float;
  e_evaluations : int;
}

type leaderboard = {
  lb_models : string array;
  lb_stories : string array;
  lb_fit_times : float array;
  lb_seed : int;
  lb_jobs : int;
  lb_entries : entry array;
}

let default_models =
  [ "dl"; "dl-linear"; "logistic"; "gompertz"; "linear-trend";
    "persistence"; "epidemic" ]

(* Per-item seed: deterministic in (tournament seed, model name, story
   index) and independent of the pool size or item order. *)
let item_seed ~seed ~model ~story_ix =
  let h = ref ((seed * 1000003) + story_ix) in
  String.iter
    (fun c -> h := ((!h * 31) + Char.code c) land 0x3FFFFFFF)
    model;
  !h

type item_result = {
  ir_ok : bool;
  ir_error : string option;
  ir_rel_err : float;       (* held-out; nan when no cells or failed *)
  ir_training : float;
  ir_evals : int;
  ir_fit_ns : int;
  ir_predict_ns : int;
}

let eval_times_of ~(obs : Socialnet.Density.t) ~fit_times =
  let cutoff = Array.fold_left Float.max 1. fit_times in
  Array.of_list
    (List.filter
       (fun t -> t > cutoff +. 1e-9)
       (Array.to_list obs.Socialnet.Density.times))

let run_item ~seed ~fit_times ~model ~story_ix ~(obs : Socialnet.Density.t) =
  let spec =
    Predictor.spec ~fit_times
      ~seed:(item_seed ~seed ~model ~story_ix)
      ~pool:Parallel.Pool.sequential obs
  in
  let t0 = Obs.now_ns () in
  match Predictor.fit model spec with
  | fitted ->
    let t1 = Obs.now_ns () in
    let eval_times = eval_times_of ~obs ~fit_times in
    let rel, _ =
      Socialnet.Density.mean_relative_error obs ~times:eval_times
        ~predict:fitted.Predictor.predict
    in
    let t2 = Obs.now_ns () in
    {
      ir_ok = true;
      ir_error = None;
      ir_rel_err = rel;
      ir_training = fitted.Predictor.training_error;
      ir_evals = fitted.Predictor.evaluations;
      ir_fit_ns = t1 - t0;
      ir_predict_ns = t2 - t1;
    }
  | exception e ->
    let t1 = Obs.now_ns () in
    Obs.Log.warn "tournament.item_failed" ~fields:(fun () ->
        [
          Obs.Log.str "model" model;
          Obs.Log.int "story" story_ix;
          Obs.Log.str "exn" (Printexc.to_string e);
        ]);
    {
      ir_ok = false;
      ir_error = Some (Printexc.to_string e);
      ir_rel_err = Float.nan;
      ir_training = Float.nan;
      ir_evals = 0;
      ir_fit_ns = t1 - t0;
      ir_predict_ns = 0;
    }

let mean_finite values =
  let sum = ref 0. and count = ref 0 in
  Array.iter
    (fun v ->
      if Float.is_finite v then begin
        sum := !sum +. v;
        incr count
      end)
    values;
  if !count = 0 then Float.nan else !sum /. float_of_int !count

let m_items = Obs.Metrics.counter "tournament.items"
let m_runs = Obs.Metrics.counter "tournament.runs"

let run ?(pool = Parallel.Pool.sequential) ?(fit_times = [| 2.; 3. |])
    ?(seed = 42) ?(models = default_models) stories =
 Obs.Span.with_span "tournament.run" @@ fun () ->
  if stories = [] then invalid_arg "Tournament.run: empty story list";
  List.iter
    (fun m ->
      if Predictor.find m = None then
        invalid_arg
          (Printf.sprintf "Tournament.run: unknown model %S (registered: %s)"
             m
             (String.concat ", " (Predictor.names ()))))
    models;
  let models_a = Array.of_list models in
  let stories_a = Array.of_list stories in
  let n_models = Array.length models_a in
  let n_stories = Array.length stories_a in
  (* model-major flattening: item i = (model i / n_stories, story i mod
     n_stories); static, so the partitioning never depends on timing *)
  let items = Array.init (n_models * n_stories) Fun.id in
  let results =
    Parallel.Pool.parallel_map pool
      (fun i ->
        let model = models_a.(i / n_stories) in
        let story_ix = i mod n_stories in
        let _, obs = stories_a.(story_ix) in
        Obs.Metrics.incr m_items;
        Obs.Span.with_span "tournament.item"
          ~attrs:(fun () ->
            [ Obs.Log.str "model" model; Obs.Log.int "story" story_ix ])
          (fun () -> run_item ~seed ~fit_times ~model ~story_ix ~obs))
      items
  in
  let entries =
    Array.mapi
      (fun mi model ->
        let of_story si = results.((mi * n_stories) + si) in
        let per_story = Array.init n_stories (fun si -> (of_story si).ir_rel_err) in
        let any_ok = ref false and first_error = ref None in
        let fit_ns = ref 0 and predict_ns = ref 0 and evals = ref 0 in
        let trainings = Array.make n_stories Float.nan in
        for si = 0 to n_stories - 1 do
          let r = of_story si in
          if r.ir_ok then any_ok := true;
          (if !first_error = None then
             match r.ir_error with Some _ as e -> first_error := e | None -> ());
          fit_ns := !fit_ns + r.ir_fit_ns;
          predict_ns := !predict_ns + r.ir_predict_ns;
          evals := !evals + r.ir_evals;
          trainings.(si) <- r.ir_training
        done;
        let mean = mean_finite per_story in
        (* labelled metric handles register on first use per model *)
        Obs.Metrics.set
          (Obs.Metrics.gauge ~label:model "tournament.mean_rel_err")
          mean;
        Obs.Metrics.incr ~by:n_stories
          (Obs.Metrics.counter ~label:model "tournament.fits");
        {
          e_model = model;
          e_ok = !any_ok;
          e_error = !first_error;
          e_mean_rel_err = mean;
          e_training_error = mean_finite trainings;
          e_per_story = per_story;
          e_fit_ms = float_of_int !fit_ns /. 1e6;
          e_predict_ms = float_of_int !predict_ns /. 1e6;
          e_evaluations = !evals;
        })
      models_a
  in
  (* rank: successful models by ascending held-out error (nan last),
     failed models after; ties keep input order (stable sort) *)
  let rank e =
    if not e.e_ok then 2 else if Float.is_finite e.e_mean_rel_err then 0 else 1
  in
  let sorted = Array.copy entries in
  let cmp a b =
    match compare (rank a) (rank b) with
    | 0 ->
      if rank a = 0 then compare a.e_mean_rel_err b.e_mean_rel_err else 0
    | c -> c
  in
  Array.stable_sort cmp sorted;
  Obs.Metrics.incr m_runs;
  Obs.Log.info "tournament.done" ~fields:(fun () ->
      [
        Obs.Log.int "models" n_models;
        Obs.Log.int "stories" n_stories;
        Obs.Log.str "best"
          (if Array.length sorted > 0 then sorted.(0).e_model else "");
      ]);
  {
    lb_models = models_a;
    lb_stories = Array.map fst stories_a;
    lb_fit_times = fit_times;
    lb_seed = seed;
    lb_jobs = Parallel.Pool.jobs pool;
    lb_entries = sorted;
  }

(* --- synthetic story set --- *)

let synthetic_stories ?(n = 4) ?(seed = 7) () =
  let rng = Rng.create seed in
  List.init n (fun i ->
      let d = Rng.uniform rng 0.01 0.1 in
      let k = Rng.uniform rng 20. 60. in
      let a = Rng.uniform rng 0.5 1.5 in
      let b = Rng.uniform rng 0.5 1.5 in
      let c = Rng.uniform rng 0.05 0.3 in
      let base = Rng.uniform rng 1. 5. in
      let decay = Rng.uniform rng 0.3 0.8 in
      let params =
        Params.make ~d ~k ~r:(Growth.Exp_decay { a; b; c }) ~l:1. ~big_l:5.
      in
      let xs = Array.init 5 (fun j -> float_of_int (j + 1)) in
      let phi =
        Initial.of_observations ~xs
          ~densities:
            (Array.map (fun x -> base *. exp (-.decay *. (x -. 1.))) xs)
      in
      let times = Array.init 6 (fun j -> float_of_int (j + 1)) in
      let sol = Model.solve ~nx:41 ~dt:0.05 params ~phi ~times in
      let predict = Model.predictor sol in
      let density =
        Array.map
          (fun x ->
            Array.map
              (fun t ->
                let v = predict ~x ~t in
                let noisy = v *. (1. +. (0.05 *. Rng.normal rng ())) in
                Float.max 1e-3 noisy)
              times)
          xs
      in
      ( Printf.sprintf "synth-%d" (i + 1),
        {
          Socialnet.Density.distances = Array.init 5 (fun j -> j + 1);
          times;
          density;
          population = Array.make 5 1000;
        } ))

(* --- JSON (hand-rolled: Tiny_json lives above this library) --- *)

let schema_version = "dlosn-tournament/1"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let json_string lb =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"schema\": \"%s\",\n" schema_version;
  out "  \"seed\": %d,\n" lb.lb_seed;
  out "  \"jobs\": %d,\n" lb.lb_jobs;
  out "  \"fit_times\": [%s],\n"
    (String.concat ", "
       (Array.to_list (Array.map json_float lb.lb_fit_times)));
  out "  \"stories\": [%s],\n"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun s -> Printf.sprintf "\"%s\"" (json_escape s))
             lb.lb_stories)));
  out "  \"leaderboard\": [\n";
  Array.iteri
    (fun i e ->
      out "    {\"model\": \"%s\", \"ok\": %b, \"error\": %s, "
        (json_escape e.e_model) e.e_ok
        (match e.e_error with
        | None -> "null"
        | Some m -> Printf.sprintf "\"%s\"" (json_escape m));
      out "\"mean_rel_err\": %s, \"training_error\": %s, "
        (json_float e.e_mean_rel_err)
        (json_float e.e_training_error);
      out "\"per_story\": [%s], "
        (String.concat ", "
           (Array.to_list (Array.map json_float e.e_per_story)));
      out "\"fit_ms\": %s, \"predict_ms\": %s, \"evaluations\": %d}%s\n"
        (json_float e.e_fit_ms) (json_float e.e_predict_ms) e.e_evaluations
        (if i < Array.length lb.lb_entries - 1 then "," else "");
      ())
    lb.lb_entries;
  out "  ]\n";
  out "}\n";
  Buffer.contents buf

let pp ppf lb =
  Format.fprintf ppf "%-4s %-14s %12s %12s %10s %8s@." "rank" "model"
    "holdout_err" "train_err" "fit_ms" "evals";
  Array.iteri
    (fun i e ->
      if e.e_ok then
        Format.fprintf ppf "%-4d %-14s %12.4f %12.4f %10.1f %8d@." (i + 1)
          e.e_model e.e_mean_rel_err e.e_training_error e.e_fit_ms
          e.e_evaluations
      else
        Format.fprintf ppf "%-4d %-14s %12s %12s %10.1f %8s  (%s)@." (i + 1)
          e.e_model "-" "-" e.e_fit_ms "-"
          (match e.e_error with Some m -> m | None -> "failed"))
    lb.lb_entries
