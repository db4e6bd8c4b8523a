open Numerics
open Osn_graph

type corpus = {
  dataset : Dataset.t;
  rep_ids : int array;
  n_topics : int;
}

let n_topics = 8

(* Twitter-flavoured follower graph: preferential attachment with heavy
   hubs ("celebrities"), low reciprocity, no community structure to
   speak of (interest homophily on Twitter is weaker than on topical
   news sites). *)
let make_graph rng n =
  Generators.barabasi_albert rng ~n ~m:4 ~reciprocity:0.1 ()

let make_prefs rng n =
  Array.init n (fun _ -> Rng.dirichlet rng (Array.make n_topics 0.5))

let build ?(n_users = 20_000) ?(n_background = 300) ~seed () =
  let rng = Rng.create seed in
  let follows = make_graph rng n_users in
  let influence = Digraph.reverse follows in
  let prefs = make_prefs rng n_users in
  let activity =
    Array.init n_users (fun _ ->
        Float.min 8. (Rng.pareto rng ~alpha:2. ~x_min:0.5))
  in
  let affinity topic u =
    Float.min 1.0 (3.0 *. activity.(u) *. prefs.(u).(topic))
  in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* Background tweets: follower-channel cascades with a faint search
     channel, just enough to give users vote histories. *)
  let background =
    Array.init n_background (fun _ ->
        let initiator = Rng.int rng n_users in
        let topic = Rng.weighted_index rng prefs.(initiator) in
        let params =
          {
            Cascade.default with
            p_follow = 0.35;
            initiator_boost = 2.0;
            follow_delay_mean = 0.3;
            promote_threshold = 1;
            front_page_rate = 3.;
            front_page_decay = 0.3;
            duration = 50.;
            max_votes = 4_000;
          }
        in
        Cascade.simulate rng ~influence ~affinity:(affinity topic) ~params
          ~initiator ~story_id:(fresh_id ()) ~topic ())
  in
  (* Representative tweets: initiators with decreasing follower counts
     (a celebrity, two mid-tier accounts, a regular user). *)
  let ranking = Centrality.in_degree_ranking follows in
  let rep_ranks = [| 0; 12; 60; 400 |] in
  let rep =
    Array.map
      (fun rank ->
        let initiator = ranking.(Stdlib.min rank (n_users - 1)) in
        let topic = Rng.weighted_index rng prefs.(initiator) in
        let params =
          {
            Cascade.default with
            p_follow = 0.4;
            initiator_boost = 2.5;
            follow_delay_mean = 0.3;
            promote_threshold = 1;
            front_page_rate = 5.;
            front_page_decay = 0.3;
            duration = 50.;
            max_votes = n_users / 3;
          }
        in
        Cascade.simulate rng ~influence ~affinity:(affinity topic) ~params
          ~initiator ~story_id:(fresh_id ()) ~topic ())
      rep_ranks
  in
  let stories = Array.append background rep in
  let dataset = Dataset.make ~follows ~influence ~stories in
  {
    dataset;
    rep_ids = Array.map (fun (s : Types.story) -> s.Types.id) rep;
    n_topics;
  }
