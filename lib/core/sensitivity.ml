type objective = Params.t -> float

let accuracy_objective ~phi ~obs ~times params =
  match Model.solve params ~phi ~times with
  | sol ->
    let table =
      Accuracy.table
        ~predict:(fun ~x ~t -> Model.predict sol ~x:(float_of_int x) ~t)
        ~actual:(fun ~x ~t -> Socialnet.Density.at obs ~distance:x ~time:t)
        ~distances:obs.Socialnet.Density.distances ~times
    in
    table.Accuracy.overall_average
  | exception _ -> nan

type axis = D | K | R_a | R_b | R_c

let axis_name = function
  | D -> "d"
  | K -> "K"
  | R_a -> "r.a"
  | R_b -> "r.b"
  | R_c -> "r.c"

let perturb (p : Params.t) axis factor =
  match (axis, p.Params.r) with
  | D, _ -> { p with Params.d = p.Params.d *. factor }
  | K, _ -> { p with Params.k = p.Params.k *. factor }
  | R_a, Growth.Exp_decay { a; b; c } ->
    { p with Params.r = Growth.Exp_decay { a = a *. factor; b; c } }
  | R_b, Growth.Exp_decay { a; b; c } ->
    { p with Params.r = Growth.Exp_decay { a; b = b *. factor; c } }
  | R_c, Growth.Exp_decay { a; b; c } ->
    { p with Params.r = Growth.Exp_decay { a; b; c = c *. factor } }
  | (R_a | R_b | R_c), Growth.Constant _ ->
    invalid_arg "Sensitivity.perturb: growth-rate axis needs Exp_decay"

type row = { axis : axis; factor : float; value : float; delta : float }

let all_axes (p : Params.t) =
  match p.Params.r with
  | Growth.Exp_decay _ -> [ D; K; R_a; R_b; R_c ]
  | Growth.Constant _ -> [ D; K ]

let m_cells = Obs.Metrics.counter "sensitivity.cells"

let one_at_a_time ?(pool = Parallel.Pool.sequential)
    ?(factors = [| 0.5; 0.8; 1.25; 2.0 |]) f p =
 Obs.Span.with_span "sensitivity.one_at_a_time" @@ fun () ->
  let reference = f p in
  (* Cells in the same (axis-major) order the sequential sweep used;
     each evaluation is independent, so the rows come back identical
     for any pool size. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun axis ->
           Array.to_list (Array.map (fun factor -> (axis, factor)) factors))
         (all_axes p))
  in
  let values =
    Parallel.Pool.parallel_map pool
      (fun (axis, factor) ->
        Obs.Metrics.incr m_cells;
        f (perturb p axis factor))
      cells
  in
  Array.mapi
    (fun i (axis, factor) ->
      { axis; factor; value = values.(i); delta = values.(i) -. reference })
    cells

let axis_value (p : Params.t) = function
  | D -> p.Params.d
  | K -> p.Params.k
  | R_a -> (
    match p.Params.r with
    | Growth.Exp_decay { a; _ } -> a
    | Growth.Constant _ -> invalid_arg "Sensitivity: Exp_decay required")
  | R_b -> (
    match p.Params.r with
    | Growth.Exp_decay { b; _ } -> b
    | Growth.Constant _ -> invalid_arg "Sensitivity: Exp_decay required")
  | R_c -> (
    match p.Params.r with
    | Growth.Exp_decay { c; _ } -> c
    | Growth.Constant _ -> invalid_arg "Sensitivity: Exp_decay required")

let elasticity ?(eps = 0.05) f p axis =
  let base = f p in
  let x = axis_value p axis in
  if base = 0. || x = 0. then nan
  else begin
    let up = f (perturb p axis (1. +. eps)) in
    let down = f (perturb p axis (1. -. eps)) in
    (up -. down) /. (2. *. eps) /. base
  end

