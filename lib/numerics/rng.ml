(* SplitMix64 (Steele, Lea, Flood 2014).  64-bit state, 64-bit output,
   period 2^64.  Fast, statistically solid for simulation workloads, and
   trivially splittable, which is what we need to hand independent
   streams to sub-components. *)

type t = {
  mutable state : int64;
  (* Cached second Box--Muller deviate. *)
  mutable gauss : float option;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed); gauss = None }

let copy t = { state = t.state; gauss = t.gauss }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = int64 t in
  { state = mix seed; gauss = None }

(* Top 53 bits -> uniform float in [0,1). *)
let float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t a b =
  assert (a <= b);
  a +. ((b -. a) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let raw = Int64.shift_right_logical (int64 t) 1 in
    let v = Int64.rem raw n64 in
    if Int64.(sub raw v > sub max_int (sub n64 1L)) then draw ()
    else Int64.to_int v
  in
  draw ()

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p = float t < p

let normal t ?(mu = 0.) ?(sigma = 1.) () =
  let z =
    match t.gauss with
    | Some z ->
      t.gauss <- None;
      z
    | None ->
      let rec polar () =
        let u = uniform t (-1.) 1. and v = uniform t (-1.) 1. in
        let s = (u *. u) +. (v *. v) in
        if s >= 1. || s = 0. then polar ()
        else begin
          let f = sqrt (-2. *. log s /. s) in
          t.gauss <- Some (v *. f);
          u *. f
        end
      in
      polar ()
  in
  mu +. (sigma *. z)

let exponential t lambda =
  assert (lambda > 0.);
  -.log1p (-.float t) /. lambda

let poisson t lambda =
  assert (lambda > 0.);
  if lambda < 60. then begin
    let limit = exp (-.lambda) in
    let rec loop k p =
      let p = p *. float t in
      if p <= limit then k else loop (k + 1) p
    in
    loop 0 1.0
  end
  else begin
    (* Normal approximation with continuity correction; adequate for the
       high-rate front-page arrival process. *)
    let x = normal t ~mu:lambda ~sigma:(sqrt lambda) () in
    max 0 (int_of_float (Float.round x))
  end

let pareto t ~alpha ~x_min =
  assert (alpha > 0. && x_min > 0.);
  x_min /. ((1. -. float t) ** (1. /. alpha))

(* Marsaglia--Tsang gamma sampler, shape >= 0; used only by [dirichlet]. *)
let rec gamma t shape =
  if shape < 1. then begin
    let u = float t in
    gamma t (shape +. 1.) *. (u ** (1. /. shape))
  end
  else begin
    let d = shape -. (1. /. 3.) in
    let c = 1. /. sqrt (9. *. d) in
    let rec draw () =
      let x = normal t () in
      let v = (1. +. (c *. x)) ** 3. in
      if v <= 0. then draw ()
      else
        let u = float t in
        let x2 = x *. x in
        if u < 1. -. (0.0331 *. x2 *. x2) then d *. v
        else if log u < (0.5 *. x2) +. (d *. (1. -. v +. log v)) then d *. v
        else draw ()
    in
    draw ()
  end

let dirichlet t alphas =
  let g = Array.map (fun a -> gamma t a) alphas in
  let s = Array.fold_left ( +. ) 0. g in
  Array.map (fun x -> x /. s) g

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  assert (0 <= k && k <= n);
  if k * 3 >= n then begin
    (* Dense: shuffle a full index array and take a prefix. *)
    let all = Array.init n Fun.id in
    shuffle t all;
    Array.sub all 0 k
  end
  else begin
    (* Sparse: rejection with a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let x = int t n in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        out.(!filled) <- x;
        incr filled
      end
    done;
    out
  end

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let weighted_index t w =
  let total = Array.fold_left ( +. ) 0. w in
  assert (total > 0.);
  let target = float t *. total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.
