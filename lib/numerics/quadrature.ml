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
