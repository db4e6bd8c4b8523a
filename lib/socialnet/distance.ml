open Osn_graph

let friendship_hops ds ~story =
  let init = story.Types.initiator in
  let dist = Traversal.bfs_distances (Dataset.influence ds) init in
  Array.mapi (fun u d -> if u = init || d <= 0 then -1 else d) dist

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
  let a = Dataset.stories_voted_by ds init in
  let kept = List.filter (fun x -> x <> exclude) (Array.to_list a) in
  let na = List.length kept in
  let lo = List.fold_left Stdlib.min max_int kept in
  let span = List.fold_left (fun acc x -> Stdlib.max acc (x - lo + 1)) 0 kept in
  let dense = span <= (2 * Dataset.n_stories ds) + 64 in
  let counts = Array.make (if dense then span else 0) 0 in
  if dense then List.iter (fun x -> counts.(x - lo) <- counts.(x - lo) + 1) kept;
  (* Users with no measurable vote history (beyond the story under
     study) are outside the metric's universe, like non-voters in the
     paper's crawl of voters: they get NaN rather than all landing in
     the farthest group. *)
  Array.init (Dataset.n_users ds) (fun u ->
      let b = Dataset.stories_voted_by ds u in
      let nb = ref 0 and inter = ref 0 and run = ref 0 in
      Array.iteri
        (fun j x ->
          if x <> exclude then begin
            incr nb;
            run := if j > 0 && b.(j - 1) = x then !run + 1 else 1;
            let k = x - lo in
            if k >= 0 && k < Array.length counts && !run <= counts.(k) then
              incr inter
          end)
        b;
      if u = init || !nb = 0 then nan
      else if not dense then jaccard_distance ~exclude a b
      else
        let union = na + !nb - !inter in
        1. -. (float_of_int !inter /. float_of_int union))

type grouping = Equal_width | Quantile

let interest_groups ?(n_groups = 5) ?(grouping = Equal_width) ds ~story =
  if n_groups < 1 then invalid_arg "Distance.interest_groups: n_groups >= 1";
  let d = interest_distances ds ~story in
  let observed = Array.of_seq (Seq.filter (fun x -> not (Float.is_nan x)) (Array.to_seq d)) in
  let group_of =
    match grouping with
    | Equal_width ->
      let lo = Numerics.Stats.min observed and hi = Numerics.Stats.max observed in
      let width = if hi > lo then (hi -. lo) /. float_of_int n_groups else 1. in
      fun x ->
        let g = int_of_float ((x -. lo) /. width) in
        1 + Stdlib.max 0 (Stdlib.min (n_groups - 1) g)
    | Quantile ->
      let cuts =
        Array.init (n_groups - 1) (fun k ->
            Numerics.Stats.quantile observed
              (float_of_int (k + 1) /. float_of_int n_groups))
      in
      fun x ->
        let rec scan k = if k >= n_groups - 1 || x <= cuts.(k) then k + 1 else scan (k + 1) in
        scan 0
  in
  Array.map (fun x -> if Float.is_nan x then -1 else group_of x) d
