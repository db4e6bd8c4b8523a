let trapezoid f ~a ~b ~n =
  assert (n >= 1);
  let h = (b -. a) /. float_of_int n in
  let acc = ref ((f a +. f b) /. 2.) in
  for i = 1 to n - 1 do
    acc := !acc +. f (a +. (h *. float_of_int i))
  done;
  !acc *. h

let simpson f ~a ~b ~n =
  let n = if n mod 2 = 0 then n else n + 1 in
  let n = Stdlib.max 2 n in
  let h = (b -. a) /. float_of_int n in
  let acc = ref (f a +. f b) in
  for i = 1 to n - 1 do
    let w = if i mod 2 = 1 then 4. else 2. in
    acc := !acc +. (w *. f (a +. (h *. float_of_int i)))
  done;
  !acc *. h /. 3.

let trapezoid_sampled ~xs ~ys =
  let n = Array.length xs in
  assert (Array.length ys = n);
  let acc = ref 0. in
  for i = 0 to n - 2 do
    acc := !acc +. ((xs.(i + 1) -. xs.(i)) *. (ys.(i) +. ys.(i + 1)) /. 2.)
  done;
  !acc

let cumulative_trapezoid ~xs ~ys =
  let n = Array.length xs in
  assert (Array.length ys = n);
  let out = Array.make n 0. in
  for i = 1 to n - 1 do
    out.(i) <-
      out.(i - 1) +. ((xs.(i) -. xs.(i - 1)) *. (ys.(i) +. ys.(i - 1)) /. 2.)
  done;
  out

let adaptive_simpson ?(tol = 1e-10) ?(max_depth = 50) f ~a ~b =
  let simpson_3 fa fm fb a b = (b -. a) /. 6. *. (fa +. (4. *. fm) +. fb) in
  let rec go a b fa fm fb whole tol depth =
    let m = (a +. b) /. 2. in
    let lm = (a +. m) /. 2. and rm = (m +. b) /. 2. in
    let flm = f lm and frm = f rm in
    let left = simpson_3 fa flm fm a m in
    let right = simpson_3 fm frm fb m b in
    let delta = left +. right -. whole in
    if depth <= 0 || Float.abs delta <= 15. *. tol then
      left +. right +. (delta /. 15.)
    else
      go a m fa flm fm left (tol /. 2.) (depth - 1)
      +. go m b fm frm fb right (tol /. 2.) (depth - 1)
  in
  let m = (a +. b) /. 2. in
  let fa = f a and fm = f m and fb = f b in
  go a b fa fm fb (simpson_3 fa fm fb a b) tol max_depth
