let mean xs =
  assert (Array.length xs > 0);
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    acc /. float_of_int (n - 1)
  end

let std xs = sqrt (variance xs)

let quantile xs q =
  assert (Array.length xs > 0 && q >= 0. && q <= 1.);
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let w = pos -. float_of_int lo in
  ((1. -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let median xs = quantile xs 0.5
(* [Stdlib.min]'s and [Stdlib.max]'s own definitions, with float-typed
   comparisons instead of polymorphic ones: the same results *)
let min xs = Array.fold_left (fun a (b : float) -> if a <= b then a else b) infinity xs
let max xs = Array.fold_left (fun a (b : float) -> if a >= b then a else b) neg_infinity xs

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}

let summarize xs =
  {
    n = Array.length xs;
    mean = mean xs;
    std = std xs;
    min = min xs;
    q25 = quantile xs 0.25;
    median = median xs;
    q75 = quantile xs 0.75;
    max = max xs;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.4g std=%.4g min=%.4g q25=%.4g med=%.4g q75=%.4g max=%.4g"
    s.n s.mean s.std s.min s.q25 s.median s.q75 s.max

let histogram ?(bins = 10) xs =
  assert (bins > 0 && Array.length xs > 0);
  let lo = min xs and hi = max xs in
  let hi = if hi = lo then lo +. 1. else hi in
  let width = (hi -. lo) /. float_of_int bins in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = Stdlib.max 0 (Stdlib.min (bins - 1) b) in
      counts.(b) <- counts.(b) + 1)
    xs;
  Array.init bins (fun b ->
      (lo +. (width *. float_of_int b), lo +. (width *. float_of_int (b + 1)), counts.(b)))

let paired f pred actual =
  let n = Array.length pred in
  assert (Array.length actual = n && n > 0);
  f n

let mape pred actual =
  paired
    (fun n ->
      let acc = ref 0. and used = ref 0 in
      for i = 0 to n - 1 do
        if actual.(i) <> 0. then begin
          acc := !acc +. Float.abs ((pred.(i) -. actual.(i)) /. actual.(i));
          incr used
        end
      done;
      if !used = 0 then 0. else !acc /. float_of_int !used)
    pred actual

let pearson xs ys =
  let n = Array.length xs in
  assert (Array.length ys = n && n > 0);
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  !sxy /. sqrt (!sxx *. !syy)

let linear_regression xs ys =
  let n = Array.length xs in
  assert (Array.length ys = n && n >= 2);
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let r2 = if !syy = 0. then 1. else !sxy *. !sxy /. (!sxx *. !syy) in
  (slope, intercept, r2)
