let in_degree_ranking g =
  let nodes = Array.init (Digraph.n_nodes g) Fun.id in
  Array.sort
    (fun a b -> compare (Digraph.in_degree g b) (Digraph.in_degree g a))
    nodes;
  nodes

let pagerank ?(damping = 0.85) ?(iterations = 100) ?(tol = 1e-10) g =
  let n = Digraph.n_nodes g in
  if n = 0 then [||]
  else begin
    let uniform = 1. /. float_of_int n in
    let rank = Array.make n uniform in
    let next = Array.make n 0. in
    let iter = ref 0 and converged = ref false in
    while (not !converged) && !iter < iterations do
      incr iter;
      Array.fill next 0 n 0.;
      (* distribute rank along out-edges; collect dangling mass *)
      let dangling = ref 0. in
      for u = 0 to n - 1 do
        let deg = Digraph.out_degree g u in
        if deg = 0 then dangling := !dangling +. rank.(u)
        else begin
          let share = rank.(u) /. float_of_int deg in
          Digraph.iter_out g u (fun v -> next.(v) <- next.(v) +. share)
        end
      done;
      let base = ((1. -. damping) +. (damping *. !dangling)) *. uniform in
      let delta = ref 0. in
      for v = 0 to n - 1 do
        let updated = base +. (damping *. next.(v)) in
        delta := !delta +. Float.abs (updated -. rank.(v));
        rank.(v) <- updated
      done;
      if !delta < tol then converged := true
    done;
    rank
  end
