type problem = {
  xl : float;
  xr : float;
  nx : int;
  yl : float;
  yr : float;
  ny : int;
  dx_coef : float;
  dy_coef : float;
  reaction : x:float -> y:float -> t:float -> u:float -> float;
  initial : float -> float -> float;
  t0 : float;
}

type solution = {
  xs : float array;
  ys : float array;
  ts : float array;
  values : float array array array;
}

(* 1-D finite-volume Neumann Laplacian along an axis with n nodes and
   spacing h; boundary cells have half volume.  Returned as the three
   diagonals of L (so that row i of L u reads
   sub.(i-1) u_{i-1} + diag.(i) u_i + sup.(i) u_{i+1}). *)
let axis_operator n h =
  let h2 = h *. h in
  let weight i = if i = 0 || i = n - 1 then 0.5 else 1. in
  let sub = Array.make (n - 1) 0.
  and diag = Array.make n 0.
  and sup = Array.make (n - 1) 0. in
  for i = 0 to n - 1 do
    let h2i = h2 *. weight i in
    let right = if i = n - 1 then 0. else 1. /. h2i in
    let left = if i = 0 then 0. else 1. /. h2i in
    diag.(i) <- -.(right +. left);
    if i < n - 1 then sup.(i) <- right;
    if i > 0 then sub.(i - 1) <- left
  done;
  Tridiag.make ~sub ~diag ~sup

(* (I + c L) as a tridiagonal system. *)
let shifted c (l : Tridiag.t) =
  let n = Array.length l.Tridiag.diag in
  Tridiag.make
    ~sub:(Array.map (fun v -> c *. v) l.Tridiag.sub)
    ~diag:(Array.init n (fun i -> 1. +. (c *. l.Tridiag.diag.(i))))
    ~sup:(Array.map (fun v -> c *. v) l.Tridiag.sup)

let validate p =
  if p.nx < 3 || p.ny < 3 then invalid_arg "Pde2d.solve: need nx, ny >= 3";
  if p.xr <= p.xl || p.yr <= p.yl then invalid_arg "Pde2d.solve: empty domain";
  if p.dx_coef < 0. || p.dy_coef < 0. then
    invalid_arg "Pde2d.solve: negative diffusion"

let solve ?(dt = 0.02) p ~times =
  validate p;
  Pde.check_schedule "Pde2d.solve" ~dt ~t0:p.t0 times;
  let xs = Vec.linspace p.xl p.xr p.nx in
  let ys = Vec.linspace p.yl p.yr p.ny in
  let hx = (p.xr -. p.xl) /. float_of_int (p.nx - 1) in
  let hy = (p.yr -. p.yl) /. float_of_int (p.ny - 1) in
  let lx = axis_operator p.nx hx and ly = axis_operator p.ny hy in
  let u = Array.init p.nx (fun i -> Array.init p.ny (fun j -> p.initial xs.(i) ys.(j))) in
  let t = ref p.t0 in
  (* scratch for x-sweeps *)
  let row = Array.make p.nx 0. in
  let apply_ly u_i =
    (* dy * Ly applied to one x-row (contiguous in j) *)
    Vec.scale p.dy_coef (Tridiag.mv ly u_i)
  in
  let half_reaction dt_eff =
    let t_now = !t and t_next = !t +. dt_eff in
    for i = 0 to p.nx - 1 do
      let x = xs.(i) in
      let ui = u.(i) in
      for j = 0 to p.ny - 1 do
        let y = ys.(j) in
        let v = ui.(j) in
        let k1 = p.reaction ~x ~y ~t:t_now ~u:v in
        let k2 = p.reaction ~x ~y ~t:t_next ~u:(v +. (dt_eff *. k1)) in
        ui.(j) <- v +. (dt_eff *. (k1 +. k2) /. 2.)
      done
    done
  in
  let adi_diffusion dt_eff =
    let ax = dt_eff /. 2. *. p.dx_coef and ay = dt_eff /. 2. *. p.dy_coef in
    let solve_x = shifted (-.ax) lx and solve_y = shifted (-.ay) ly in
    (* sweep 1: rhs = (I + ay Ly) u, implicit in x *)
    let rhs_cols = Array.init p.nx (fun i ->
        let lyu = apply_ly u.(i) in
        Array.init p.ny (fun j -> u.(i).(j) +. (dt_eff /. 2. *. lyu.(j))))
    in
    let ustar = Array.init p.nx (fun _ -> Array.make p.ny 0.) in
    for j = 0 to p.ny - 1 do
      let b = Array.init p.nx (fun i -> rhs_cols.(i).(j)) in
      let sol = Tridiag.solve solve_x b in
      for i = 0 to p.nx - 1 do
        ustar.(i).(j) <- sol.(i)
      done
    done;
    (* sweep 2: rhs = (I + ax Lx) u*, implicit in y *)
    let rhs2 = Array.init p.nx (fun _ -> Array.make p.ny 0.) in
    for j = 0 to p.ny - 1 do
      for i = 0 to p.nx - 1 do
        row.(i) <- ustar.(i).(j)
      done;
      let lv = Tridiag.mv lx row in
      for i = 0 to p.nx - 1 do
        rhs2.(i).(j) <- ustar.(i).(j) +. (dt_eff /. 2. *. p.dx_coef *. lv.(i))
      done
    done;
    for i = 0 to p.nx - 1 do
      let sol = Tridiag.solve solve_y rhs2.(i) in
      Array.blit sol 0 u.(i) 0 p.ny
    done
  in
  let step dt_eff =
    half_reaction (dt_eff /. 2.);
    adi_diffusion dt_eff;
    t := !t +. (dt_eff /. 2.);
    half_reaction (dt_eff /. 2.);
    t := !t +. (dt_eff /. 2.)
  in
  let copy_u () = Array.map Array.copy u in
  let snapshots = ref [ (p.t0, copy_u ()) ] in
  Array.iter
    (fun target ->
      while target -. !t > 1e-12 do
        step (Float.min dt (target -. !t))
      done;
      t := target;
      snapshots := (target, copy_u ()) :: !snapshots)
    times;
  let snaps = Array.of_list (List.rev !snapshots) in
  { xs; ys; ts = Array.map fst snaps; values = Array.map snd snaps }

let value_at sol ~x ~y ~t =
  let nt = Array.length sol.ts in
  let it = ref 0 in
  for k = 1 to nt - 1 do
    if Float.abs (sol.ts.(k) -. t) < Float.abs (sol.ts.(!it) -. t) then it := k
  done;
  Interp.bilinear ~xs:sol.xs ~ts:sol.ys ~values:sol.values.(!it) x y

let mass sol ~it =
  let nx = Array.length sol.xs and ny = Array.length sol.ys in
  let hx = (sol.xs.(nx - 1) -. sol.xs.(0)) /. float_of_int (nx - 1) in
  let hy = (sol.ys.(ny - 1) -. sol.ys.(0)) /. float_of_int (ny - 1) in
  let w n i = if i = 0 || i = n - 1 then 0.5 else 1. in
  let acc = ref 0. in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      acc := !acc +. (w nx i *. w ny j *. sol.values.(it).(i).(j))
    done
  done;
  !acc *. hx *. hy
