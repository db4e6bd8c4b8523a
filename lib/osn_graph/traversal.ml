let bfs_distances g src =
  let n = Digraph.n_nodes g in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Digraph.iter_out g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
  done;
  dist
