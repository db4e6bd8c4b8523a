(* Adjacency stored in growable int arrays per node.  A hash set of
   packed (u, v) keys backs O(1) has_edge and duplicate suppression. *)

type adj = { mutable data : int array; mutable len : int }

type t = {
  n : int;
  out_adj : adj array;
  in_adj : adj array;
  edge_set : (int, unit) Hashtbl.t;
  mutable m : int;
}

let adj_create () = { data = [||]; len = 0 }

let adj_push a x =
  if a.len = Array.length a.data then begin
    let cap = Stdlib.max 4 (2 * Array.length a.data) in
    let bigger = Array.make cap 0 in
    Array.blit a.data 0 bigger 0 a.len;
    a.data <- bigger
  end;
  a.data.(a.len) <- x;
  a.len <- a.len + 1

let adj_to_array a = Array.sub a.data 0 a.len

let adj_iter a f =
  for i = 0 to a.len - 1 do
    f a.data.(i)
  done

let create n =
  assert (n >= 0);
  {
    n;
    out_adj = Array.init n (fun _ -> adj_create ());
    in_adj = Array.init n (fun _ -> adj_create ());
    edge_set = Hashtbl.create 1024;
    m = 0;
  }

let n_nodes g = g.n
let n_edges g = g.m

let key g u v = (u * g.n) + v

let in_bounds g u = u >= 0 && u < g.n

let has_edge g u v =
  assert (in_bounds g u && in_bounds g v);
  Hashtbl.mem g.edge_set (key g u v)

let add_edge g u v =
  assert (in_bounds g u && in_bounds g v);
  if u <> v && not (has_edge g u v) then begin
    Hashtbl.add g.edge_set (key g u v) ();
    adj_push g.out_adj.(u) v;
    adj_push g.in_adj.(v) u;
    g.m <- g.m + 1
  end

let of_edges n edges =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) edges;
  g

let out_neighbors g u =
  assert (in_bounds g u);
  adj_to_array g.out_adj.(u)

let iter_out g u f =
  assert (in_bounds g u);
  adj_iter g.out_adj.(u) f

let iter_in g u f =
  assert (in_bounds g u);
  adj_iter g.in_adj.(u) f

let out_degree g u =
  assert (in_bounds g u);
  g.out_adj.(u).len

let in_degree g u =
  assert (in_bounds g u);
  g.in_adj.(u).len

let iter_edges g f =
  for u = 0 to g.n - 1 do
    adj_iter g.out_adj.(u) (fun v -> f u v)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let reverse g =
  let r = create g.n in
  iter_edges g (fun u v -> add_edge r v u);
  r
