open Numerics

let degree_histogram dir g =
  let n = Digraph.n_nodes g in
  let deg =
    match dir with `In -> Digraph.in_degree g | `Out -> Digraph.out_degree g
  in
  let counts = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    let d = deg v in
    Hashtbl.replace counts d (1 + Option.value ~default:0 (Hashtbl.find_opt counts d))
  done;
  let pairs = Hashtbl.fold (fun d c acc -> (d, c) :: acc) counts [] in
  let arr = Array.of_list pairs in
  Array.sort compare arr;
  arr

let mean_degree g =
  if Digraph.n_nodes g = 0 then 0.
  else float_of_int (Digraph.n_edges g) /. float_of_int (Digraph.n_nodes g)

let reciprocity g =
  let m = Digraph.n_edges g in
  if m = 0 then 0.
  else begin
    let mutual = ref 0 in
    Digraph.iter_edges g (fun u v -> if Digraph.has_edge g v u then incr mutual);
    float_of_int !mutual /. float_of_int m
  end

(* Undirected neighbourhood of v (union of in- and out-neighbours). *)
let undirected_neighbors g v =
  let seen = Hashtbl.create 16 in
  Digraph.iter_out g v (fun w -> Hashtbl.replace seen w ());
  Digraph.iter_in g v (fun w -> Hashtbl.replace seen w ());
  Hashtbl.fold (fun w () acc -> w :: acc) seen []

let undirected_connected g u v = Digraph.has_edge g u v || Digraph.has_edge g v u

let clustering_coefficient ?(samples = 2000) rng g =
  let n = Digraph.n_nodes g in
  if n = 0 then 0.
  else begin
    let sample_count = Stdlib.min samples n in
    let nodes =
      if sample_count = n then Array.init n Fun.id
      else Rng.sample_without_replacement rng sample_count n
    in
    let total = ref 0. in
    Array.iter
      (fun v ->
        let nbrs = Array.of_list (undirected_neighbors g v) in
        let k = Array.length nbrs in
        if k >= 2 then begin
          let closed = ref 0 in
          for i = 0 to k - 1 do
            for j = i + 1 to k - 1 do
              if undirected_connected g nbrs.(i) nbrs.(j) then incr closed
            done
          done;
          total := !total +. (float_of_int !closed /. float_of_int (k * (k - 1) / 2))
        end)
      nodes;
    !total /. float_of_int sample_count
  end

let power_law_exponent hist =
  let points =
    Array.to_list hist
    |> List.filter (fun (d, c) -> d > 0 && c > 0)
    |> List.map (fun (d, c) -> (log (float_of_int d), log (float_of_int c)))
  in
  match points with
  | [] | [ _ ] -> nan
  | _ ->
    let xs = Array.of_list (List.map fst points) in
    let ys = Array.of_list (List.map snd points) in
    let slope, _, _ = Stats.linear_regression xs ys in
    -.slope
