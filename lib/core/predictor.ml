open Numerics

type graph_ctx = {
  laplacian : Sparse.t;
  assignment : int array;
  i0 : Vec.t;
}

type spec = {
  obs : Socialnet.Density.t;
  fit_times : float array;
  seed : int;
  pool : Parallel.Pool.t;
  graph : graph_ctx option;
}

let spec ?(fit_times = [| 2.; 3.; 4. |]) ?(seed = 42)
    ?(pool = Parallel.Pool.sequential) ?graph obs =
  { obs; fit_times; seed; pool; graph }

type fitted = {
  model : string;
  predict : x:float -> t:float -> float;
  params : (string * float) list;
  training_error : float;
  evaluations : int;
}

type t = {
  name : string;
  description : string;
  fit : spec -> fitted;
}

(* --- registry --- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []

let register p =
  if Hashtbl.mem registry p.name then
    invalid_arg
      (Printf.sprintf "Predictor.register: duplicate model %S" p.name);
  Hashtbl.replace registry p.name p;
  order := p.name :: !order

let find name = Hashtbl.find_opt registry name
let names () = List.sort String.compare (List.rev !order)
let all () = List.rev_map (fun n -> Hashtbl.find registry n) !order

let fit name spec =
  match find name with
  | Some p -> p.fit spec
  | None ->
    invalid_arg
      (Printf.sprintf "Predictor.fit: unknown model %S (registered: %s)" name
         (String.concat ", " (names ())))

(* --- shared helpers --- *)

let growth_params = function
  | Growth.Constant r -> [ ("r", r) ]
  | Growth.Exp_decay { a; b; c } -> [ ("a", a); ("b", b); ("c", c) ]

(* Baseline predictors take integer distance labels; the common
   interface is float-valued, so round to the nearest label. *)
let of_baseline (p : Baselines.predictor) ~x ~t =
  p ~x:(int_of_float (Float.round x)) ~t

let baseline name build =
  {
    name;
    description =
      (match name with
      | "logistic" -> "per-distance logistic (DL with d = 0)"
      | "gompertz" -> "per-distance Gompertz sigmoid"
      | "linear-trend" -> "per-distance OLS line, clamped at 0"
      | _ -> "density frozen at the t = 1 snapshot");
    fit =
      (fun spec ->
        let p = build spec in
        let predict = of_baseline p in
        {
          model = name;
          predict;
          params = [];
          training_error =
            fst
              (Socialnet.Density.mean_relative_error spec.obs
                 ~times:spec.fit_times ~predict);
          evaluations = 0;
        });
  }

(* --- built-ins --- *)

let dl =
  {
    name = "dl";
    description = "diffusive logistic PDE (the paper's Eq. 4)";
    fit =
      (fun spec ->
        let config = { Fit.default_config with Fit.fit_times = spec.fit_times } in
        let rng = Rng.create spec.seed in
        let phi = Fit.phi_of_obs spec.obs in
        let r = Fit.fit ~config ~pool:spec.pool ~phi rng spec.obs in
        let sol =
          Model.solve r.Fit.params ~phi ~times:spec.obs.Socialnet.Density.times
        in
        let p = r.Fit.params in
        {
          model = "dl";
          predict = Model.predictor sol;
          params =
            ("d", p.Params.d) :: ("k", p.Params.k)
            :: growth_params p.Params.r;
          training_error = r.Fit.training_error;
          evaluations = r.Fit.evaluations;
        });
  }

let dl_linear =
  {
    name = "dl-linear";
    description = "linear diffusive PDE (arXiv:1310.0505; no saturation)";
    fit =
      (fun spec ->
        let config =
          { Linear_model.default_fit_config with
            Linear_model.fit_times = spec.fit_times }
        in
        let rng = Rng.create spec.seed in
        let r = Linear_model.fit ~config ~pool:spec.pool rng spec.obs in
        let phi = Fit.phi_of_obs spec.obs in
        let sol =
          Linear_model.solve r.Linear_model.params ~phi
            ~times:spec.obs.Socialnet.Density.times
        in
        let p = r.Linear_model.params in
        {
          model = "dl-linear";
          predict = Linear_model.predictor sol;
          params = ("d", p.Linear_model.d) :: growth_params p.Linear_model.r;
          training_error = r.Linear_model.training_error;
          evaluations = r.Linear_model.evaluations;
        });
  }

let epidemic =
  {
    name = "epidemic";
    description = "networked SI metapopulation over distance groups";
    fit =
      (fun spec ->
        let rng = Rng.create spec.seed in
        let r = Epidemic.fit ~fit_times:spec.fit_times rng spec.obs in
        let p = r.Epidemic.params in
        {
          model = "epidemic";
          predict = of_baseline (Epidemic.predictor p ~obs:spec.obs);
          params =
            [
              ("beta_local", p.Epidemic.beta_local);
              ("beta_cross", p.Epidemic.beta_cross);
              ("mixing_decay", p.Epidemic.mixing_decay);
            ];
          training_error = r.Epidemic.training_error;
          evaluations = r.Epidemic.evaluations;
        });
  }

let network =
  let d_grid = [| 0.005; 0.02; 0.08 |] in
  let r_grid = [| 0.3; 0.6; 1.2 |] in
  {
    name = "network";
    description = "node-level DL on the social graph (needs graph context)";
    fit =
      (fun spec ->
        let g =
          match spec.graph with
          | Some g -> g
          | None ->
            invalid_arg
              "Predictor.fit: model \"network\" requires graph context \
               (laplacian, assignment, i0)"
        in
        let obs = spec.obs in
        let r =
          Network_model.fit_grid ~laplacian:g.laplacian
            ~assignment:g.assignment ~obs ~i0:g.i0 ~d_grid ~r_grid ~k:100. ()
        in
        let p = r.Network_model.params in
        let distances = obs.Socialnet.Density.distances in
        let max_distance = distances.(Array.length distances - 1) in
        let times = obs.Socialnet.Density.times in
        let snapshots =
          Network_model.solve ~laplacian:g.laplacian p ~i0:g.i0 ~times
        in
        let profiles =
          Array.map
            (fun (_, v) ->
              Network_model.group_average ~assignment:g.assignment
                ~max_distance v)
            snapshots
        in
        let predict ~x ~t =
          (* nearest recorded snapshot and distance group *)
          let it = ref 0 in
          Array.iteri
            (fun i ti ->
              if Float.abs (ti -. t) < Float.abs (times.(!it) -. t) then
                it := i)
            times;
          let ix = int_of_float (Float.round x) - 1 in
          let ix = Stdlib.max 0 (Stdlib.min (max_distance - 1) ix) in
          profiles.(!it).(ix)
        in
        {
          model = "network";
          predict;
          params =
            ("d", p.Network_model.d) :: ("k", p.Network_model.k)
            :: growth_params p.Network_model.r;
          training_error = r.Network_model.training_error;
          evaluations = Array.length d_grid * Array.length r_grid;
        });
  }

let () =
  register dl;
  register dl_linear;
  register
    (baseline "logistic" (fun spec ->
         Baselines.logistic_per_distance spec.obs ~fit_times:spec.fit_times));
  register
    (baseline "gompertz" (fun spec ->
         Baselines.gompertz_per_distance spec.obs ~fit_times:spec.fit_times));
  register
    (baseline "linear-trend" (fun spec ->
         Baselines.linear_trend spec.obs ~fit_times:spec.fit_times));
  register (baseline "persistence" (fun spec -> Baselines.persistence spec.obs));
  register epidemic;
  register network
