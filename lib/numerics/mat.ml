type t = { nr : int; nc : int; data : float array }

exception Singular

let create nr nc x = { nr; nc; data = Array.make (nr * nc) x }

let init nr nc f =
  { nr; nc; data = Array.init (nr * nc) (fun k -> f (k / nc) (k mod nc)) }

let of_arrays rows =
  let nr = Array.length rows in
  assert (nr > 0);
  let nc = Array.length rows.(0) in
  assert (Array.for_all (fun r -> Array.length r = nc) rows);
  init nr nc (fun i j -> rows.(i).(j))

let rows m = m.nr
let cols m = m.nc
let get m i j = m.data.((i * m.nc) + j)
let set m i j x = m.data.((i * m.nc) + j) <- x
let copy m = { m with data = Array.copy m.data }
let mv m x =
  assert (m.nc = Array.length x);
  Array.init m.nr (fun i ->
      let acc = ref 0. in
      for j = 0 to m.nc - 1 do
        acc := !acc +. (get m i j *. x.(j))
      done;
      !acc)

type lu = { lu_mat : t; perm : int array }

let lu_decompose a =
  assert (a.nr = a.nc);
  let n = a.nr in
  let m = copy a in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    (* Partial pivoting: largest magnitude in column k. *)
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (get m i k) > Float.abs (get m !pivot k) then pivot := i
    done;
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let tmp = get m k j in
        set m k j (get m !pivot j);
        set m !pivot j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tmp
    end;
    let pkk = get m k k in
    if Float.abs pkk < 1e-300 then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = get m i k /. pkk in
      set m i k factor;
      for j = k + 1 to n - 1 do
        set m i j (get m i j -. (factor *. get m k j))
      done
    done
  done;
  { lu_mat = m; perm }

let lu_solve { lu_mat = m; perm } b =
  let n = m.nr in
  assert (Array.length b = n);
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* Forward substitution with unit lower triangle. *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (get m i j *. x.(j))
    done
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (get m i j *. x.(j))
    done;
    x.(i) <- x.(i) /. get m i i
  done;
  x

let solve a b = lu_solve (lu_decompose a) b

let approx_equal ?(tol = 1e-9) a b =
  a.nr = b.nr && a.nc = b.nc
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.data b.data
