type adjacency = { offsets : int array; targets : int array }

let adjacency g =
  let n = Digraph.n_nodes g in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + Digraph.out_degree g u
  done;
  let targets = Array.make offsets.(n) 0 in
  for u = 0 to n - 1 do
    let k = ref offsets.(u) in
    Digraph.iter_out g u (fun v ->
        targets.(!k) <- v;
        incr k)
  done;
  { offsets; targets }

(* Every node enters the queue at most once, so an array of [n] slots
   is the queue. *)
let bfs_distances { offsets; targets } src =
  let n = Array.length offsets - 1 in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for e = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(e) in
      if dist.(v) < 0 then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist
