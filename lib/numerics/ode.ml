type rhs = t:float -> y:Vec.t -> Vec.t

let euler_step f ~t ~dt ~y = Vec.axpy dt (f ~t ~y) y

let rk4_step f ~t ~dt ~y =
  let k1 = f ~t ~y in
  let k2 = f ~t:(t +. (dt /. 2.)) ~y:(Vec.axpy (dt /. 2.) k1 y) in
  let k3 = f ~t:(t +. (dt /. 2.)) ~y:(Vec.axpy (dt /. 2.) k2 y) in
  let k4 = f ~t:(t +. dt) ~y:(Vec.axpy dt k3 y) in
  Vec.init (Vec.dim y) (fun i ->
      y.(i) +. (dt /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))))

let integrate ?(step = `Rk4) f ~y0 ~t0 ~times =
  let stepper =
    match step with `Euler -> euler_step f | `Rk4 -> rk4_step f
  in
  let substeps_per_unit = 32. in
  let y = ref (Vec.copy y0) and t = ref t0 in
  Array.map
    (fun target ->
      assert (target >= !t);
      let span = target -. !t in
      if span > 0. then begin
        let n = Stdlib.max 1 (int_of_float (ceil (span *. substeps_per_unit))) in
        let dt = span /. float_of_int n in
        for _ = 1 to n do
          y := stepper ~t:!t ~dt ~y:!y;
          t := !t +. dt
        done;
        t := target
      end;
      (target, Vec.copy !y))
    times

let scalar_rhs f : rhs = fun ~t ~y -> [| f ~t ~y:y.(0) |]

let logistic ~r ~k ~n0 t =
  assert (k > 0.);
  if n0 = 0. then 0.
  else k /. (1. +. (((k /. n0) -. 1.) *. exp (-.r *. t)))

let logistic_varying_r ~r_integral ~k ~n0 t =
  assert (k > 0.);
  if n0 = 0. then 0.
  else k /. (1. +. (((k /. n0) -. 1.) *. exp (-.r_integral t)))
