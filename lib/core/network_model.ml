open Numerics

type params = { d : float; k : float; r : Growth.t }

let indicator_initial (story : Socialnet.Types.story) ~n_users ~at =
  let field = Array.make n_users 0. in
  Array.iter
    (fun (v : Socialnet.Types.vote) ->
      if v.Socialnet.Types.time <= at then field.(v.Socialnet.Types.user) <- 100.)
    story.Socialnet.Types.votes;
  field

let solve ?(dt = 0.1) ~laplacian p ~i0 ~times =
  if p.d < 0. || p.k <= 0. then invalid_arg "Network_model.solve: bad params";
  Pde.check_schedule "Network_model.solve" ~dt ~t0:1. times;
  let n = Vec.dim i0 in
  if Sparse.rows laplacian <> n then
    invalid_arg "Network_model.solve: laplacian/initial size mismatch";
  let system dt_eff = Sparse.add_identity 1. (Sparse.scale (dt_eff *. p.d) laplacian) in
  (* cache the CG system for the common full step *)
  let full_system = system dt in
  let u = ref (Array.copy i0) and t = ref 1. in
  let step dt_eff =
    (* Heun (RK2) reaction increment, then implicit diffusion *)
    let r_now = Growth.eval p.r !t in
    let r_next = Growth.eval p.r (!t +. dt_eff) in
    let rhs =
      Array.map
        (fun v ->
          let k1 = r_now *. v *. (1. -. (v /. p.k)) in
          let v1 = v +. (dt_eff *. k1) in
          let k2 = r_next *. v1 *. (1. -. (v1 /. p.k)) in
          v +. (dt_eff *. (k1 +. k2) /. 2.))
        !u
    in
    let a = if dt_eff = dt then full_system else system dt_eff in
    u := Sparse.conjugate_gradient ~tol:1e-8 ~x0:!u a rhs;
    (* clamp numerical noise *)
    Array.iteri (fun i v -> !u.(i) <- Float.max 0. (Float.min p.k v)) !u;
    t := !t +. dt_eff
  in
  Array.map
    (fun target ->
      while target -. !t > 1e-12 do
        step (Float.min dt (target -. !t))
      done;
      t := target;
      (target, Array.copy !u))
    times

let group_average ~assignment ~max_distance field =
  let sums = Array.make max_distance 0. and counts = Array.make max_distance 0 in
  Array.iteri
    (fun v x ->
      if x >= 1 && x <= max_distance && v < Array.length field then begin
        sums.(x - 1) <- sums.(x - 1) +. field.(v);
        counts.(x - 1) <- counts.(x - 1) + 1
      end)
    assignment;
  Array.mapi
    (fun i s -> if counts.(i) = 0 then 0. else s /. float_of_int counts.(i))
    sums

type fit_result = { params : params; training_error : float }

let fit_grid ?(dt = 0.1) ~laplacian ~assignment ~obs ~i0 ~d_grid ~r_grid ~k () =
  let distances = obs.Socialnet.Density.distances in
  let max_distance = distances.(Array.length distances - 1) in
  let times =
    Array.of_seq
      (Seq.filter (fun t -> t > 1.) (Array.to_seq obs.Socialnet.Density.times))
  in
  if Array.length times = 0 then
    invalid_arg "Network_model.fit_grid: no times after t = 1";
  let error p =
    match solve ~dt ~laplacian p ~i0 ~times with
    | snapshots ->
      let err = ref 0. and count = ref 0 in
      Array.iter
        (fun (t, field) ->
          let groups = group_average ~assignment ~max_distance field in
          Array.iter
            (fun x ->
              let actual = Socialnet.Density.at obs ~distance:x ~time:t in
              if actual > 0. then begin
                err := !err +. (Float.abs (groups.(x - 1) -. actual) /. actual);
                incr count
              end)
            distances)
        snapshots;
      if !count = 0 then infinity else !err /. float_of_int !count
    | exception _ -> infinity
  in
  let best = ref None in
  Array.iter
    (fun d ->
      Array.iter
        (fun r ->
          let p = { d; k; r = Growth.Constant r } in
          let e = error p in
          match !best with
          | Some (_, e') when e' <= e -> ()
          | _ -> best := Some (p, e))
        r_grid)
    d_grid;
  match !best with
  | Some (params, training_error) -> { params; training_error }
  | None -> invalid_arg "Network_model.fit_grid: empty grids"
