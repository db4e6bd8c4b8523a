(* Order statistics shared by every workload.  Kept free of I/O so the
   self-test can check them at a tiny size. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [q] in per-mille (500 = median). *)
let percentile xs ~q =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    let rank = (q * n + 999) / 1000 in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Tail percentiles a run may report, in per-mille.  A tail is only
   reported at a rank with at least [min_beyond] samples above it, so a
   single slow sample can never be the tail. *)
let tail_ladder = [ 750; 900; 990 ]
let min_beyond = 10

(* The highest ladder percentile with at least [min_beyond] samples
   beyond it, or [None] when even the lowest has too few. *)
let tail_q n =
  List.fold_left
    (fun acc q -> if n * (1000 - q) >= min_beyond * 1000 then Some q else acc)
    None tail_ladder

let tail_name q = Printf.sprintf "p%d" (q / 10)
