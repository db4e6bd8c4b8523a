type t =
  | Constant of float
  | Exp_decay of { a : float; b : float; c : float }

let eval r t =
  match r with
  | Constant c -> c
  | Exp_decay { a; b; c } -> (a *. exp (-.b *. (t -. 1.))) +. c

let integral r ~t0 ~t1 =
  match r with
  | Constant c -> c *. (t1 -. t0)
  | Exp_decay { a; b; c } ->
    (* a/b (e^{-b(t0-1)} - e^{-b(t1-1)}) as a product: the difference
       of two nearly equal exponentials cancels when b (t1 - t0) is
       small, expm1 does not *)
    if b = 0. then (a +. c) *. (t1 -. t0)
    else
      (-.a /. b *. exp (-.b *. (t0 -. 1.)) *. Float.expm1 (-.b *. (t1 -. t0)))
      +. (c *. (t1 -. t0))

let paper_hops = Exp_decay { a = 1.4; b = 1.5; c = 0.25 }
let paper_interest = Exp_decay { a = 1.6; b = 1.0; c = 0.1 }

let pp ppf = function
  | Constant c -> Format.fprintf ppf "r(t) = %g" c
  | Exp_decay { a; b; c } ->
    Format.fprintf ppf "r(t) = %g e^{-%g (t-1)} + %g" a b c
