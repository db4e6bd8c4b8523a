type t = float array

let init = Array.init
let copy = Array.copy
let dim = Array.length

let linspace a b n =
  assert (n >= 2);
  let h = (b -. a) /. Stdlib.float_of_int (n - 1) in
  Array.init n (fun i -> a +. (h *. Stdlib.float_of_int i))

let map = Array.map

let map2 f x y =
  let n = dim x in
  assert (dim y = n);
  Array.init n (fun i -> f x.(i) y.(i))

let add = map2 ( +. )
let sub = map2 ( -. )
let mul = map2 ( *. )
let scale a = map (fun x -> a *. x)
let axpy a x y = map2 (fun xi yi -> (a *. xi) +. yi) x y

let axpy_inplace a x y =
  assert (dim x = dim y);
  for i = 0 to dim x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  let n = dim x in
  assert (dim y = n);
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let sum = Array.fold_left ( +. ) 0.
let mean x = sum x /. Stdlib.float_of_int (dim x)
let norm2 x = sqrt (dot x x)
let norm_inf x = Array.fold_left (fun acc v -> Stdlib.max acc (Float.abs v)) 0. x

let dist2 x y =
  let n = dim x in
  assert (dim y = n);
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let max x = Array.fold_left Stdlib.max neg_infinity x
let min x = Array.fold_left Stdlib.min infinity x

let clamp ~lo ~hi x = map (fun v -> Stdlib.max lo (Stdlib.min hi v)) x
let fold_left = Array.fold_left

let approx_equal ?(tol = 1e-9) x y =
  dim x = dim y
  && Array.for_all2 (fun a b -> Float.abs (a -. b) <= tol) x y
