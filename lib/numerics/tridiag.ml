type t = { sub : float array; diag : float array; sup : float array }

let make ~sub ~diag ~sup =
  let n = Array.length diag in
  assert (n >= 1);
  assert (Array.length sub = n - 1);
  assert (Array.length sup = n - 1);
  { sub; diag; sup }

let dim t = Array.length t.diag

let solve t b =
  let n = dim t in
  assert (Array.length b = n);
  (* Forward sweep with scratch copies; the classic Thomas algorithm. *)
  let c' = Array.make n 0. and d' = Array.make n 0. in
  let pivot0 = t.diag.(0) in
  if Float.abs pivot0 < 1e-300 then raise Mat.Singular;
  c'.(0) <- (if n > 1 then t.sup.(0) /. pivot0 else 0.);
  d'.(0) <- b.(0) /. pivot0;
  for i = 1 to n - 1 do
    let m = t.diag.(i) -. (t.sub.(i - 1) *. c'.(i - 1)) in
    if Float.abs m < 1e-300 then raise Mat.Singular;
    if i < n - 1 then c'.(i) <- t.sup.(i) /. m;
    d'.(i) <- (b.(i) -. (t.sub.(i - 1) *. d'.(i - 1))) /. m
  done;
  let x = Array.make n 0. in
  x.(n - 1) <- d'.(n - 1);
  for i = n - 2 downto 0 do
    x.(i) <- d'.(i) -. (c'.(i) *. x.(i + 1))
  done;
  x

(* A precomputed Thomas factorization: [c] is the forward-swept
   super-diagonal c' and [m] the pivots, exactly the values the direct
   [solve] computes on every call.  [sub] aliases the source matrix's
   sub-diagonal (the matrix must not be mutated while the factorization
   is live).  [solve_factored] then performs only the O(n) d'-sweep and
   back-substitution, with the same floating-point operations in the
   same order as [solve] — outputs are bit-identical. *)
type factored = { f_sub : float array; f_c : float array; f_m : float array }

let factorize t =
  let n = dim t in
  let c = Array.make n 0. and m = Array.make n 0. in
  let pivot0 = t.diag.(0) in
  if Float.abs pivot0 < 1e-300 then raise Mat.Singular;
  m.(0) <- pivot0;
  c.(0) <- (if n > 1 then t.sup.(0) /. pivot0 else 0.);
  for i = 1 to n - 1 do
    let mi = t.diag.(i) -. (t.sub.(i - 1) *. c.(i - 1)) in
    if Float.abs mi < 1e-300 then raise Mat.Singular;
    m.(i) <- mi;
    if i < n - 1 then c.(i) <- t.sup.(i) /. mi
  done;
  { f_sub = t.sub; f_c = c; f_m = m }

let factored_dim f = Array.length f.f_m

let solve_factored f ~src ~dst =
  let n = factored_dim f in
  assert (Array.length src = n && Array.length dst = n);
  (* d'-sweep into dst (safe when src == dst: src.(i) is read before
     dst.(i) is written and earlier cells already hold d'), then
     back-substitution in place. *)
  dst.(0) <- src.(0) /. f.f_m.(0);
  for i = 1 to n - 1 do
    dst.(i) <- (src.(i) -. (f.f_sub.(i - 1) *. dst.(i - 1))) /. f.f_m.(i)
  done;
  for i = n - 2 downto 0 do
    dst.(i) <- dst.(i) -. (f.f_c.(i) *. dst.(i + 1))
  done

let mv t x =
  let n = dim t in
  assert (Array.length x = n);
  Array.init n (fun i ->
      let acc = ref (t.diag.(i) *. x.(i)) in
      if i > 0 then acc := !acc +. (t.sub.(i - 1) *. x.(i - 1));
      if i < n - 1 then acc := !acc +. (t.sup.(i) *. x.(i + 1));
      !acc)

let to_dense t =
  let n = dim t in
  Mat.init n n (fun i j ->
      if i = j then t.diag.(i)
      else if j = i + 1 then t.sup.(i)
      else if j = i - 1 then t.sub.(j)
      else 0.)
