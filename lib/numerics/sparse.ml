type t = {
  nr : int;
  nc : int;
  row_ptr : int array;   (* length nr + 1 *)
  col_idx : int array;   (* length nnz, sorted within each row *)
  values : float array;  (* length nnz *)
}

let rows m = m.nr
let cols m = m.nc

let of_triplets ~rows:nr ~cols:nc triplets =
  assert (nr >= 0 && nc >= 0);
  (* bucket by row, then sort and merge duplicates within each row *)
  let buckets = Array.make nr [] in
  List.iter
    (fun (r, c, v) ->
      if r < 0 || r >= nr || c < 0 || c >= nc then
        invalid_arg "Sparse.of_triplets: index out of range";
      if v <> 0. then buckets.(r) <- (c, v) :: buckets.(r))
    triplets;
  let merged =
    Array.map
      (fun entries ->
        let sorted = List.sort (fun (a, _) (b, _) -> compare a b) entries in
        let rec merge = function
          | (c1, v1) :: (c2, v2) :: rest when c1 = c2 ->
            merge ((c1, v1 +. v2) :: rest)
          | pair :: rest -> pair :: merge rest
          | [] -> []
        in
        List.filter (fun (_, v) -> v <> 0.) (merge sorted))
      buckets
  in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 merged in
  let row_ptr = Array.make (nr + 1) 0 in
  let col_idx = Array.make total 0 in
  let values = Array.make total 0. in
  let k = ref 0 in
  Array.iteri
    (fun r entries ->
      row_ptr.(r) <- !k;
      List.iter
        (fun (c, v) ->
          col_idx.(!k) <- c;
          values.(!k) <- v;
          incr k)
        entries)
    merged;
  row_ptr.(nr) <- !k;
  { nr; nc; row_ptr; col_idx; values }

let get m r c =
  assert (r >= 0 && r < m.nr && c >= 0 && c < m.nc);
  let lo = ref m.row_ptr.(r) and hi = ref (m.row_ptr.(r + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if m.col_idx.(mid) = c then begin
      result := m.values.(mid);
      lo := !hi + 1
    end
    else if m.col_idx.(mid) < c then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let mv_into m x y =
  assert (Array.length x = m.nc && Array.length y = m.nr);
  for r = 0 to m.nr - 1 do
    let acc = ref 0. in
    for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
      acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
    done;
    y.(r) <- !acc
  done

let mv m x =
  let y = Array.make m.nr 0. in
  mv_into m x y;
  y

let scale s m = { m with values = Array.map (fun v -> s *. v) m.values }

let add_identity c m =
  if m.nr <> m.nc then invalid_arg "Sparse.add_identity: matrix not square";
  (* rebuild via triplets: simple and safe; diagonal may be absent *)
  let triplets = ref [] in
  for r = 0 to m.nr - 1 do
    for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
      triplets := (r, m.col_idx.(k), m.values.(k)) :: !triplets
    done;
    triplets := (r, r, c) :: !triplets
  done;
  of_triplets ~rows:m.nr ~cols:m.nc !triplets

let to_dense m = Mat.init m.nr m.nc (fun r c -> get m r c)

let conjugate_gradient ?(tol = 1e-10) ?max_iter ?x0 a b =
  if a.nr <> a.nc then invalid_arg "Sparse.conjugate_gradient: not square";
  let n = a.nr in
  assert (Array.length b = n);
  let max_iter = Option.value max_iter ~default:(2 * n) in
  let x = match x0 with Some v -> Array.copy v | None -> Array.make n 0. in
  let r = Array.make n 0. in
  mv_into a x r;
  for i = 0 to n - 1 do
    r.(i) <- b.(i) -. r.(i)
  done;
  let p = Array.copy r in
  let ap = Array.make n 0. in
  let rs_old = ref (Vec.dot r r) in
  let b_norm = Float.max 1e-300 (Vec.norm2 b) in
  let iter = ref 0 in
  while sqrt !rs_old > tol *. b_norm && !iter < max_iter do
    incr iter;
    mv_into a p ap;
    let denom = Vec.dot p ap in
    if denom = 0. then iter := max_iter
    else begin
      let alpha = !rs_old /. denom in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (alpha *. p.(i));
        r.(i) <- r.(i) -. (alpha *. ap.(i))
      done;
      let rs_new = Vec.dot r r in
      let beta = rs_new /. !rs_old in
      for i = 0 to n - 1 do
        p.(i) <- r.(i) +. (beta *. p.(i))
      done;
      rs_old := rs_new
    end
  done;
  x
