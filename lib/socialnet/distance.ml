open Osn_graph

let friendship_hops ds ~story =
  let init = story.Types.initiator in
  let dist = Traversal.bfs_distances (Dataset.influence_adjacency ds) init in
  (* the initiator is the only node at 0 *)
  dist.(init) <- -1;
  dist

(* Intersection/union sizes of two sorted int arrays, skipping
   [exclude]. *)
let jaccard_distance ~exclude a b =
  let na = Array.length a and nb = Array.length b in
  let inter = ref 0 and union = ref 0 in
  let i = ref 0 and j = ref 0 in
  let bump x =
    if x <> exclude then incr union
  in
  while !i < na && !j < nb do
    let va = a.(!i) and vb = b.(!j) in
    if va = vb then begin
      if va <> exclude then begin
        incr inter;
        incr union
      end;
      incr i;
      incr j
    end
    else if va < vb then begin
      bump va;
      incr i
    end
    else begin
      bump vb;
      incr j
    end
  done;
  while !i < na do
    bump a.(!i);
    incr i
  done;
  while !j < nb do
    bump b.(!j);
    incr j
  done;
  if !union = 0 then 1.
  else 1. -. (float_of_int !inter /. float_of_int !union)

let shared_interest ds ~exclude a b =
  jaccard_distance ~exclude (Dataset.stories_voted_by ds a)
    (Dataset.stories_voted_by ds b)

(* [shared_interest] from a story's initiator to every user, without a
   merge per pair: the initiator's ids are counted once into a table
   over their range, then each user's own ids are scanned against it.
   On sorted lists the merge pairs equal ids one for one, so an id held
   [ca] times by the initiator and [cb] times by the user adds
   [min ca cb] to the intersection and [max ca cb] to the union; the
   scan counts the same two integers (union = |A| + |B| - intersection),
   so every distance is the same float.  Story ids are dense in every
   corpus the repo builds; an initiator whose ids span far more than
   the corpus keeps the merge instead of a table that size. *)
let interest_distances ds ~story =
  let init = story.Types.initiator in
  let exclude = story.Types.id in
  let offsets, ids = Dataset.vote_index ds in
  let a0 = offsets.(init) and a1 = offsets.(init + 1) in
  let na = ref 0 and lo = ref max_int in
  for k = a0 to a1 - 1 do
    if ids.(k) <> exclude then begin
      incr na;
      lo := Int.min !lo ids.(k)
    end
  done;
  let na = !na and lo = !lo in
  let span = ref 0 in
  for k = a0 to a1 - 1 do
    if ids.(k) <> exclude then span := Int.max !span (ids.(k) - lo + 1)
  done;
  let span = !span in
  let dense = span <= (2 * Dataset.n_stories ds) + 64 in
  let counts = Array.make (if dense then span else 0) 0 in
  if dense then
    for k = a0 to a1 - 1 do
      if ids.(k) <> exclude then counts.(ids.(k) - lo) <- counts.(ids.(k) - lo) + 1
    done;
  (* Users with no measurable vote history (beyond the story under
     study) are outside the metric's universe, like non-voters in the
     paper's crawl of voters: they get NaN rather than all landing in
     the farthest group. *)
  let a = Dataset.stories_voted_by ds init in
  let d = Array.make (Dataset.n_users ds) nan in
  for u = 0 to Dataset.n_users ds - 1 do
    let b0 = offsets.(u) and b1 = offsets.(u + 1) in
    let nb = ref 0 and inter = ref 0 and run = ref 0 in
    for k = b0 to b1 - 1 do
      let x = ids.(k) in
      if x <> exclude then begin
        incr nb;
        run := if k > b0 && ids.(k - 1) = x then !run + 1 else 1;
        let c = x - lo in
        if c >= 0 && c < Array.length counts && !run <= counts.(c) then incr inter
      end
    done;
    if u <> init && !nb > 0 then
      d.(u) <-
        (if not dense then jaccard_distance ~exclude a (Dataset.stories_voted_by ds u)
         else
           let union = na + !nb - !inter in
           1. -. (float_of_int !inter /. float_of_int union))
  done;
  d

type grouping = Equal_width | Quantile

let interest_groups ?(n_groups = 5) ?(grouping = Equal_width) ds ~story =
  if n_groups < 1 then invalid_arg "Distance.interest_groups: n_groups >= 1";
  let d = interest_distances ds ~story in
  let n = Array.length d in
  let observed =
    let kept = Array.make n 0. and m = ref 0 in
    for u = 0 to n - 1 do
      if not (Float.is_nan d.(u)) then begin
        kept.(!m) <- d.(u);
        incr m
      end
    done;
    Array.sub kept 0 !m
  in
  let labels = Array.make n (-1) in
  (match grouping with
  | Equal_width ->
    let lo = Numerics.Stats.min observed and hi = Numerics.Stats.max observed in
    let width = if hi > lo then (hi -. lo) /. float_of_int n_groups else 1. in
    for u = 0 to n - 1 do
      let x = d.(u) in
      if not (Float.is_nan x) then begin
        let g = int_of_float ((x -. lo) /. width) in
        labels.(u) <- 1 + Int.max 0 (Int.min (n_groups - 1) g)
      end
    done
  | Quantile ->
    let cuts =
      Array.init (n_groups - 1) (fun k ->
          Numerics.Stats.quantile observed
            (float_of_int (k + 1) /. float_of_int n_groups))
    in
    for u = 0 to n - 1 do
      let x = d.(u) in
      if not (Float.is_nan x) then begin
        (* the first cut at or above x, else the last group *)
        let g = ref 0 in
        while !g < n_groups - 1 && not (x <= cuts.(!g)) do
          incr g
        done;
        labels.(u) <- !g + 1
      end
    done);
  labels
