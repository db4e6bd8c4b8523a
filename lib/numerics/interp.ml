(* Float-typed: without the annotations the search compiles to
   polymorphic code, which boxes each probed grid value and calls the
   polymorphic [<=]. *)
let bracket (xs : float array) (x : float) =
  let n = Array.length xs in
  assert (n >= 1);
  if n = 1 then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if xs.(mid) <= x then lo := mid else hi := mid
    done;
    !lo
  end

let linear ~xs ~ys x =
  let n = Array.length xs in
  assert (Array.length ys = n && n >= 1);
  if n = 1 || x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    let i = bracket xs x in
    let w = (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
    ((1. -. w) *. ys.(i)) +. (w *. ys.(i + 1))
  end

let bilinear ~xs ~ts ~values x t =
  let nx = Array.length xs and nt = Array.length ts in
  assert (Array.length values = nx);
  assert (nx >= 1 && nt >= 1);
  let clampf lo hi v = Float.max lo (Float.min hi v) in
  let x = clampf xs.(0) xs.(nx - 1) x in
  let t = clampf ts.(0) ts.(nt - 1) t in
  let i = if nx = 1 then 0 else bracket xs x in
  let j = if nt = 1 then 0 else bracket ts t in
  let i1 = Int.min (i + 1) (nx - 1) and j1 = Int.min (j + 1) (nt - 1) in
  let wx =
    if i1 = i then 0. else (x -. xs.(i)) /. (xs.(i1) -. xs.(i))
  and wt =
    if j1 = j then 0. else (t -. ts.(j)) /. (ts.(j1) -. ts.(j))
  in
  ((1. -. wx) *. (1. -. wt) *. values.(i).(j))
  +. (wx *. (1. -. wt) *. values.(i1).(j))
  +. ((1. -. wx) *. wt *. values.(i).(j1))
  +. (wx *. wt *. values.(i1).(j1))
