open Numerics

type params = {
  beta_local : float;
  beta_cross : float;
  mixing_decay : float;
}

let validate p =
  if p.beta_local < 0. || p.beta_cross < 0. then
    invalid_arg "Epidemic.validate: transmission rates must be non-negative";
  if p.mixing_decay <= 0. || p.mixing_decay > 1. then
    invalid_arg "Epidemic.validate: mixing_decay must be in (0, 1]"

(* Right-hand side over infected fractions (0..1). *)
let rhs p : Ode.rhs =
 fun ~t:_ ~y ->
  let m = Vec.dim y in
  Array.init m (fun x ->
      let force = ref (p.beta_local *. y.(x)) in
      for o = 0 to m - 1 do
        if o <> x then begin
          let w = p.mixing_decay ** float_of_int (abs (x - o)) in
          force := !force +. (p.beta_cross *. w *. y.(o))
        end
      done;
      !force *. (1. -. y.(x)))

let simulate p ~i0 ~times =
  validate p;
  if Array.exists (fun t -> t < 1.) times then
    invalid_arg "Epidemic.simulate: times start at t = 1";
  let y0 = Array.map (fun v -> Float.max 0. (Float.min 1. (v /. 100.))) i0 in
  let snapshots = Ode.integrate (rhs p) ~y0 ~t0:1. ~times in
  let m = Array.length i0 in
  Array.init m (fun ix ->
      Array.map (fun (_, y) -> 100. *. y.(ix)) snapshots)

type fit_result = { params : params; training_error : float; evaluations : int }

let group_index distances x =
  let found = ref (-1) in
  Array.iteri (fun i d -> if d = x then found := i) distances;
  if !found < 0 then invalid_arg "Epidemic.predictor: unknown distance"
  else !found

let error_against (obs : Socialnet.Density.t) ~fit_times p =
  let i0 = Array.map (fun row -> row.(0)) obs.Socialnet.Density.density in
  match simulate p ~i0 ~times:fit_times with
  | result -> (
    (* the simulated value at a cell: the row of its group, the column
       of its fitting hour *)
    let predict ~x ~t =
      let it = ref 0 in
      while fit_times.(!it) <> t do incr it done;
      result.(group_index obs.Socialnet.Density.distances (int_of_float x)).(!it)
    in
    match
      Socialnet.Density.mean_relative_error obs ~times:fit_times ~predict
    with
    | _, 0 -> infinity
    | err, _ -> err)
  | exception _ -> infinity

let fit ?(fit_times = [| 2.; 3.; 4. |]) rng (obs : Socialnet.Density.t) =
  if Float.abs (obs.Socialnet.Density.times.(0) -. 1.) > 1e-9 then
    invalid_arg "Epidemic.fit: observations must start at t = 1";
  let clamp lo hi v = Float.max lo (Float.min hi v) in
  let of_vector v =
    {
      beta_local = clamp 0. 10. v.(0);
      beta_cross = clamp 0. 10. v.(1);
      mixing_decay = clamp 0.05 1. v.(2);
    }
  in
  let objective v = error_against obs ~fit_times (of_vector v) in
  let best, evaluations =
    Fit.multi_start ~tol:1e-8 ~max_iter:400 (fun () -> objective)
      (Fit.box_starts ~starts:6 ~lo:[| 0.; 0.; 0.05 |] ~hi:[| 3.; 1.; 1. |] rng)
  in
  let params = of_vector best.Optimize.x in
  { params; training_error = error_against obs ~fit_times params; evaluations }

let predictor p ~(obs : Socialnet.Density.t) =
  let distances = obs.Socialnet.Density.distances in
  let i0 = Array.map (fun row -> row.(0)) obs.Socialnet.Density.density in
  (* Hourly snapshots up to a generous horizon, interpolated on query. *)
  let horizon = 72 in
  let times = Array.init horizon (fun i -> 1. +. float_of_int i) in
  let table = simulate p ~i0 ~times in
  fun ~x ~t -> Interp.linear ~xs:times ~ys:table.(group_index distances x) t
