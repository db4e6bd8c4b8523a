type boundary = Natural | Clamped of float * float
type extrapolation = Flat | Linear | Error

type t = {
  xs : float array;
  ys : float array;
  moments : float array; (* second derivatives at the knots *)
  extrapolation : extrapolation;
}

let strictly_increasing xs =
  let ok = ref true in
  for i = 0 to Array.length xs - 2 do
    if xs.(i + 1) <= xs.(i) then ok := false
  done;
  !ok

(* Solve the tridiagonal moment system for the knot second
   derivatives.  Interior rows are the standard continuity equations;
   boundary rows encode the requested end conditions. *)
let compute_moments boundary xs ys =
  let n = Array.length xs in
  let h = Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  let slope i = (ys.(i + 1) -. ys.(i)) /. h.(i) in
  let sub = Array.make (n - 1) 0.
  and diag = Array.make n 0.
  and sup = Array.make (n - 1) 0.
  and rhs = Array.make n 0. in
  for i = 1 to n - 2 do
    sub.(i - 1) <- h.(i - 1) /. 6.;
    diag.(i) <- (h.(i - 1) +. h.(i)) /. 3.;
    sup.(i) <- h.(i) /. 6.;
    rhs.(i) <- slope i -. slope (i - 1)
  done;
  (match boundary with
  | Natural ->
    diag.(0) <- 1.;
    rhs.(0) <- 0.;
    diag.(n - 1) <- 1.;
    rhs.(n - 1) <- 0.
    (* sup.(0) and sub.(n-2) stay 0 for interior rows of the first/last
       equations unless clamped; Natural rows are M0 = 0, Mn-1 = 0. *)
  | Clamped (fpa, fpb) ->
    diag.(0) <- h.(0) /. 3.;
    sup.(0) <- h.(0) /. 6.;
    rhs.(0) <- slope 0 -. fpa;
    diag.(n - 1) <- h.(n - 2) /. 3.;
    sub.(n - 2) <- h.(n - 2) /. 6.;
    rhs.(n - 1) <- fpb -. slope (n - 2));
  (* For Natural the first/last off-diagonals must be zero. *)
  (match boundary with
  | Natural ->
    sup.(0) <- 0.;
    sub.(n - 2) <- 0.
  | Clamped _ -> ());
  Tridiag.solve (Tridiag.make ~sub ~diag ~sup) rhs

let make ?(boundary = Natural) ?(extrapolation = Flat) ~xs ~ys () =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Spline.make: need at least two points";
  if Array.length ys <> n then invalid_arg "Spline.make: length mismatch";
  if not (strictly_increasing xs) then
    invalid_arg "Spline.make: xs must be strictly increasing";
  let moments = compute_moments boundary xs ys in
  { xs = Array.copy xs; ys = Array.copy ys; moments; extrapolation }

let flat_ends ~xs ~ys =
  make ~boundary:(Clamped (0., 0.)) ~extrapolation:Flat ~xs ~ys ()

let domain t = (t.xs.(0), t.xs.(Array.length t.xs - 1))
let knots t = Array.init (Array.length t.xs) (fun i -> (t.xs.(i), t.ys.(i)))

(* Index of the interval containing x, by binary search. *)
let interval t x =
  let n = Array.length t.xs in
  let lo = ref 0 and hi = ref (n - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.xs.(mid) <= x then lo := mid else hi := mid
  done;
  !lo

let in_range t x =
  let l, r = domain t in
  x >= l && x <= r

(* Derivative of the spline at the left/right end knot (needed by
   Linear extrapolation). *)
let end_slope t ~right =
  let n = Array.length t.xs in
  let i = if right then n - 2 else 0 in
  let h = t.xs.(i + 1) -. t.xs.(i) in
  let s = (t.ys.(i + 1) -. t.ys.(i)) /. h in
  if right then s +. (h /. 6. *. ((2. *. t.moments.(i + 1)) +. t.moments.(i)))
  else s -. (h /. 6. *. ((2. *. t.moments.(i)) +. t.moments.(i + 1)))

let outside t x k =
  let l, r = domain t in
  let n = Array.length t.xs in
  match t.extrapolation with
  | Error ->
    invalid_arg (Printf.sprintf "Spline: %g outside domain [%g, %g]" x l r)
  | Flat -> (
    match k with
    | `Value -> if x < l then t.ys.(0) else t.ys.(n - 1)
    | `Deriv | `Second -> 0.)
  | Linear -> (
    let right = x > r in
    let slope = end_slope t ~right in
    match k with
    | `Value ->
      if right then t.ys.(n - 1) +. (slope *. (x -. r))
      else t.ys.(0) +. (slope *. (x -. l))
    | `Deriv -> slope
    | `Second -> 0.)

let eval t x =
  if not (in_range t x) then outside t x `Value
  else begin
    let i = interval t x in
    let h = t.xs.(i + 1) -. t.xs.(i) in
    let a = (t.xs.(i + 1) -. x) /. h and b = (x -. t.xs.(i)) /. h in
    (a *. t.ys.(i)) +. (b *. t.ys.(i + 1))
    +. (h *. h /. 6.
        *. ((((a *. a *. a) -. a) *. t.moments.(i))
            +. (((b *. b *. b) -. b) *. t.moments.(i + 1))))
  end

let deriv t x =
  if not (in_range t x) then outside t x `Deriv
  else begin
    let i = interval t x in
    let h = t.xs.(i + 1) -. t.xs.(i) in
    let a = (t.xs.(i + 1) -. x) /. h and b = (x -. t.xs.(i)) /. h in
    ((t.ys.(i + 1) -. t.ys.(i)) /. h)
    +. (h /. 6.
        *. ((((3. *. b *. b) -. 1.) *. t.moments.(i + 1))
            -. (((3. *. a *. a) -. 1.) *. t.moments.(i))))
  end

let second_deriv t x =
  if not (in_range t x) then outside t x `Second
  else begin
    let i = interval t x in
    let h = t.xs.(i + 1) -. t.xs.(i) in
    let a = (t.xs.(i + 1) -. x) /. h and b = (x -. t.xs.(i)) /. h in
    (a *. t.moments.(i)) +. (b *. t.moments.(i + 1))
  end
