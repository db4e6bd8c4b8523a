open Numerics

(* Preferential attachment via the repeated-targets trick: sampling
   uniformly from the endpoint multiset weights nodes by degree.  We
   seed every node with one "virtual" stub so degree-0 nodes stay
   reachable (degree + 1 weighting). *)
let barabasi_albert rng ~n ~m ?(reciprocity = 0.3) () =
  if not (n > m && m >= 1) then
    invalid_arg "Generators.barabasi_albert: need n > m >= 1";
  let g = Digraph.create n in
  (* endpoint multiset: a uniform pick from this bag weights nodes by
     the number of times they were followed (in-degree) *)
  let bag = ref (Array.make 1024 0) and bag_size = ref 0 in
  let push v =
    if !bag_size = Array.length !bag then begin
      let bigger = Array.make (2 * !bag_size) 0 in
      Array.blit !bag 0 bigger 0 !bag_size;
      bag := bigger
    end;
    !bag.(!bag_size) <- v;
    incr bag_size
  in
  let pick_target limit =
    (* mostly preferential over nodes < limit, with a uniform escape
       hatch so low-degree nodes remain reachable *)
    let rec draw attempts =
      if attempts > 64 then Rng.int rng limit
      else begin
        let candidate =
          if Rng.bernoulli rng 0.9 then !bag.(Rng.int rng !bag_size)
          else Rng.int rng limit
        in
        if candidate < limit then candidate else draw (attempts + 1)
      end
    in
    draw 0
  in
  (* fully connect the first m+1 nodes *)
  for u = 0 to m do
    for v = 0 to m do
      if u <> v then begin
        Digraph.add_edge g u v;
        push v
      end
    done
  done;
  for u = m + 1 to n - 1 do
    let added = ref 0 and attempts = ref 0 in
    while !added < m && !attempts < 50 * m do
      incr attempts;
      let v = pick_target u in
      if v <> u && not (Digraph.has_edge g u v) then begin
        Digraph.add_edge g u v;
        push v;
        if Rng.bernoulli rng reciprocity then begin
          Digraph.add_edge g v u;
          push u
        end;
        incr added
      end
    done
  done;
  g

let star n =
  let g = Digraph.create n in
  for v = 1 to n - 1 do
    Digraph.add_edge g 0 v
  done;
  g

let ring n =
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    Digraph.add_edge g u ((u + 1) mod n)
  done;
  g

let line n =
  let g = Digraph.create n in
  for u = 0 to n - 2 do
    Digraph.add_edge g u (u + 1)
  done;
  g

let complete n =
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then Digraph.add_edge g u v
    done
  done;
  g
