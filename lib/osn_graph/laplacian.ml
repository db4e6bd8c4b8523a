(* Undirected simple edges of the digraph, each returned once. *)
let undirected_edges g =
  let seen = Hashtbl.create 1024 in
  let edges = ref [] in
  let n = Digraph.n_nodes g in
  Digraph.iter_edges g (fun u v ->
      let a = Stdlib.min u v and b = Stdlib.max u v in
      let key = (a * n) + b in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        edges := (a, b) :: !edges
      end);
  !edges

let undirected_laplacian g =
  let n = Digraph.n_nodes g in
  let edges = undirected_edges g in
  let triplets = ref [] in
  List.iter
    (fun (a, b) ->
      triplets :=
        (a, b, -1.) :: (b, a, -1.) :: (a, a, 1.) :: (b, b, 1.) :: !triplets)
    edges;
  Numerics.Sparse.of_triplets ~rows:n ~cols:n !triplets
