open Numerics
open Osn_graph

let log_src = Logs.Src.create "dlosn.digg" ~doc:"synthetic Digg corpus builder"

module Log = (val Logs.src_log log_src : Logs.LOG)

let n_topics = 10

type scale = { n_users : int; n_background : int; vote_factor : float }

let small = { n_users = 2_000; n_background = 80; vote_factor = 0.02 }
let medium = { n_users = 20_000; n_background = 400; vote_factor = 0.14 }
let full = { n_users = 139_409; n_background = 3_549; vote_factor = 1.0 }

type corpus = {
  dataset : Dataset.t;
  rep_ids : int array;
  community : int array;
  prefs : float array array;
  activity : float array;
  n_topics : int;
}

let affinity corpus ~topic u =
  Float.min 1.0 (2.2 *. corpus.activity.(u) *. corpus.prefs.(u).(topic))

(* Community sizes follow a mild power law; community 0 ("mainstream")
   is the largest. *)
let community_weights =
  Array.init n_topics (fun c -> (float_of_int (c + 1)) ** -0.7)

let assign_communities rng n =
  Array.init n (fun _ -> Rng.weighted_index rng community_weights)

(* Topic preferences: mostly the user's own community topic, a bump on
   the mainstream topic, and Dirichlet noise for individuality. *)
let make_prefs rng community =
  Array.map
    (fun c ->
      let noise = Rng.dirichlet rng (Array.make n_topics 0.4) in
      Array.init n_topics (fun k ->
          (0.55 *. if k = c then 1. else 0.)
          +. (0.08 *. if k = 0 then 1. else 0.)
          +. (0.33 *. noise.(k))))
    community

(* Heavy-tailed follower graph with topic homophily: preferential
   attachment where ~85% of follow choices are restricted to the
   user's own community. *)
let make_follower_graph rng n community =
  let g = Digraph.create n in
  let homophily = 0.85 and reciprocity = 0.2 in
  (* growable bags of previously-followed targets, one per community
     plus a global one; uniform picks from a bag are degree-weighted *)
  let bag () = ref ([||], 0) in
  let global = bag () and per_community = Array.init n_topics (fun _ -> bag ()) in
  let push b v =
    let data, len = !b in
    let data =
      if len = Array.length data then begin
        let bigger = Array.make (Stdlib.max 16 (2 * len)) 0 in
        Array.blit data 0 bigger 0 len;
        bigger
      end
      else data
    in
    data.(len) <- v;
    b := (data, len + 1)
  in
  let pick b =
    let data, len = !b in
    if len = 0 then None else Some data.(Rng.int rng len)
  in
  let register v =
    push global v;
    push per_community.(community.(v)) v
  in
  let pick_target u =
    let b =
      if Rng.bernoulli rng homophily then per_community.(community.(u))
      else global
    in
    match (if Rng.bernoulli rng 0.9 then pick b else None) with
    | Some v -> v
    | None -> Rng.int rng n
  in
  for u = 0 to n - 1 do
    let m = 2 + Rng.poisson rng 2.5 in
    let m = Stdlib.min m 40 in
    let added = ref 0 and attempts = ref 0 in
    while !added < m && !attempts < 30 * m do
      incr attempts;
      let v = pick_target u in
      if v <> u && not (Digraph.has_edge g u v) then begin
        Digraph.add_edge g u v;
        register v;
        if Rng.bernoulli rng reciprocity && not (Digraph.has_edge g v u) then begin
          Digraph.add_edge g v u;
          register u
        end;
        incr added
      end
    done
  done;
  g

(* Users of a community ranked by follower count (descending). *)
let ranked_by_followers follows community c =
  let n = Digraph.n_nodes follows in
  let members = ref [] in
  for u = 0 to n - 1 do
    if community.(u) = c then members := u :: !members
  done;
  let arr = Array.of_list !members in
  Array.sort
    (fun a b -> compare (Digraph.in_degree follows b) (Digraph.in_degree follows a))
    arr;
  arr

(* The four representative stories, tuned so the realised cascades land
   near the paper's vote scales and reproduce its qualitative shapes
   (see mli).  [target] is the desired vote count before vote_factor. *)
type rep_spec = {
  target : float;
  decay : float;      (* faster decay = story gets stale sooner *)
  p_follow : float;
  boost : float;      (* initiator exposure prominence *)
  rate_factor : float; (* front-page volume as a fraction of target *)
  mainstream : bool;  (* mainstream topic vs initiator's own community *)
  rank : int;         (* initiator's follower-count rank in its community *)
  rep_community : int;
}

let rep_specs =
  [|
    (* s1: most popular, broad appeal, niche initiator *)
    { target = 24_099.; decay = 0.22; p_follow = 0.30; boost = 1.7;
      rate_factor = 0.20; mainstream = true; rank = 20; rep_community = 1 };
    (* s2: second most popular, community hub initiator *)
    { target = 8_521.; decay = 0.12; p_follow = 0.08; boost = 1.2;
      rate_factor = 0.55; mainstream = false; rank = 0; rep_community = 0 };
    (* s3 *)
    { target = 5_988.; decay = 0.10; p_follow = 0.05; boost = 1.2;
      rate_factor = 0.95; mainstream = false; rank = 1; rep_community = 2 };
    (* s4: least popular; hub initiator with weak engagement, so density
       decays monotonically with hop distance *)
    { target = 1_618.; decay = 0.07; p_follow = 0.015; boost = 1.2;
      rate_factor = 1.2; mainstream = false; rank = 1; rep_community = 3 };
  |]

(* Visibility: users who share interests with the initiator are more
   likely to encounter the story at all (shared channels).  Cosine
   similarity of preference vectors, mapped into [0.45, 1]. *)
let make_visibility prefs initiator =
  let pi = prefs.(initiator) in
  let norm v = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v) in
  let ni = norm pi in
  fun u ->
    let pu = prefs.(u) in
    let dot = ref 0. in
    Array.iteri (fun k x -> dot := !dot +. (x *. pu.(k))) pi;
    let cosine = !dot /. (ni *. norm pu) in
    0.45 +. (0.55 *. cosine)

let build ?(scale = medium) ~seed () =
  let { n_users = n; n_background; vote_factor } = scale in
  let rng = Rng.create seed in
  let community = assign_communities rng n in
  let prefs = make_prefs rng community in
  (* Pareto(2, 0.5): mean 1, a few hyper-active users, capped so one
     user cannot dominate a story. *)
  let activity =
    Array.init n (fun _ -> Float.min 8. (Rng.pareto rng ~alpha:2. ~x_min:0.5))
  in
  let follows = make_follower_graph rng n community in
  Log.debug (fun m ->
      m "follower graph: %d users, %d edges" n (Digraph.n_edges follows));
  let influence = Digraph.reverse follows in
  let user_affinity topic u =
    Float.min 1.0 (2.2 *. activity.(u) *. prefs.(u).(topic))
  in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* Pick representative initiators up front so their activity can be
     raised before the background stories build everyone's vote
     history: rep initiators need rich, measurable histories for the
     shared-interest distance to them to be informative. *)
  let rep_initiators =
    Array.map
      (fun spec ->
        let ranked = ranked_by_followers follows community spec.rep_community in
        ranked.(Stdlib.min spec.rank (Array.length ranked - 1)))
      rep_specs
  in
  Array.iter
    (fun init -> activity.(init) <- Float.max 3. activity.(init))
    rep_initiators;
  (* Background stories give users vote histories (the C_a sets of the
     shared-interest metric).  Sizes are Pareto so a few background
     stories are big, like real front pages. *)
  let bg_mean = Float.max 30. (Float.min 600. (0.02 *. float_of_int n)) in
  let background =
    Array.init n_background (fun _ ->
        let initiator = Rng.int rng n in
        let topic = Rng.weighted_index rng prefs.(initiator) in
        let target =
          Float.min (6. *. bg_mean)
            (Rng.pareto rng ~alpha:1.8 ~x_min:(bg_mean /. 2.25))
        in
        (* the corpus only contains promoted (front-page) stories, so
           promotion is immediate, like the paper's crawl *)
        let params =
          {
            Cascade.default with
            p_follow = 0.3;
            promote_threshold = 1;
            front_page_rate = 0.3 *. target *. 0.15;
            front_page_decay = 0.15;
            max_votes = int_of_float (3. *. target) + 10;
          }
        in
        Cascade.simulate rng ~influence ~affinity:(user_affinity topic)
          ~visibility:(make_visibility prefs initiator) ~params ~initiator
          ~story_id:(fresh_id ()) ~topic ())
  in
  (* Representative stories s1..s4. *)
  let rep =
    Array.mapi
      (fun k spec ->
        let initiator = rep_initiators.(k) in
        let topic = if spec.mainstream then 0 else community.(initiator) in
        let target =
          Float.min (0.35 *. float_of_int n) (spec.target *. vote_factor)
        in
        let params =
          {
            Cascade.p_follow = spec.p_follow;
            initiator_boost = spec.boost;
            follow_delay_mean = 0.6;
            (* every story in the corpus reached the front page; start
               the arrival stream immediately so cascades are viable at
               every corpus scale *)
            promote_threshold = 1;
            front_page_rate = spec.rate_factor *. target *. spec.decay;
            front_page_decay = spec.decay;
            front_page_burst = 0.25;
            duration = 50.;
            max_votes = int_of_float (3. *. target) + 10;
          }
        in
        Cascade.simulate rng ~influence ~affinity:(user_affinity topic)
          ~visibility:(make_visibility prefs initiator) ~params ~initiator
          ~story_id:(fresh_id ()) ~topic ())
      rep_specs
  in
  let stories = Array.append background rep in
  Log.debug (fun m ->
      m "cascades done: %d stories, %d votes"
        (Array.length stories)
        (Array.fold_left
           (fun acc s -> acc + Types.story_vote_count s)
           0 stories));
  let dataset = Dataset.make ~follows ~influence ~stories in
  let rep_ids = Array.map (fun (s : Types.story) -> s.Types.id) rep in
  { dataset; rep_ids; community; prefs; activity; n_topics }
