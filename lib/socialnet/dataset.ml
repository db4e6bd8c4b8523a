(* Serialised format (line-oriented, tab-separated):

     dlosn-dataset 1
     users <n>
     follows <m>
     <u> <v>          (m lines: u follows v)
     stories <k>
     story <id> <initiator> <topic> <n_votes>
     <user> <time>    (n_votes lines, sorted by time)
     ... repeated for each story *)

open Osn_graph

type t = {
  follows : Digraph.t;
  influence : Digraph.t;
  reach : Traversal.adjacency; (* [influence], flat *)
  stories : Types.story array;
  (* user u's story ids, ascending, are
     vote_ids.(vote_offsets.(u)) .. vote_ids.(vote_offsets.(u + 1) - 1) *)
  vote_offsets : int array;
  vote_ids : int array;
}

(* Both graphs are simple, so [influence] is [follows] reversed when
   every node's out-neighbours in [influence] are, as many and each one,
   its in-neighbours in [follows]. *)
let check_reverse ~follows ~influence =
  let n = Digraph.n_nodes follows in
  let fail () = invalid_arg "Dataset.make: influence must be the reverse of follows" in
  if Digraph.n_nodes influence <> n then fail ();
  (* mark.(u) = v: u follows v *)
  let mark = Array.make n (-1) in
  for v = 0 to n - 1 do
    if Digraph.out_degree influence v <> Digraph.in_degree follows v then fail ();
    Digraph.iter_in follows v (fun u -> mark.(u) <- v);
    Digraph.iter_out influence v (fun u -> if mark.(u) <> v then fail ())
  done

let make ~follows ~influence ~stories =
  check_reverse ~follows ~influence;
  let n = Digraph.n_nodes follows in
  let vote_offsets = Array.make (n + 1) 0 in
  Array.iter
    (fun (s : Types.story) ->
      Types.check_story s;
      Array.iter
        (fun (v : Types.vote) ->
          let u = v.Types.user in
          if u < 0 || u >= n then invalid_arg "Dataset.make: voter id out of range";
          vote_offsets.(u + 1) <- vote_offsets.(u + 1) + 1)
        s.Types.votes)
    stories;
  for u = 1 to n do
    vote_offsets.(u) <- vote_offsets.(u) + vote_offsets.(u - 1)
  done;
  (* filled story by story in ascending id order, so each user's ids
     come out ascending *)
  let by_id = Array.init (Array.length stories) Fun.id in
  Array.stable_sort
    (fun a b -> Int.compare stories.(a).Types.id stories.(b).Types.id)
    by_id;
  let vote_ids = Array.make vote_offsets.(n) 0 in
  let next = Array.sub vote_offsets 0 n in
  Array.iter
    (fun k ->
      let s = stories.(k) in
      Array.iter
        (fun (v : Types.vote) ->
          let u = v.Types.user in
          vote_ids.(next.(u)) <- s.Types.id;
          next.(u) <- next.(u) + 1)
        s.Types.votes)
    by_id;
  {
    follows;
    influence;
    reach = Traversal.adjacency influence;
    stories;
    vote_offsets;
    vote_ids;
  }

let n_users t = Digraph.n_nodes t.follows
let n_stories t = Array.length t.stories
let follows t = t.follows
let influence t = t.influence
let influence_adjacency t = t.reach

let story t i =
  if i < 0 || i >= Array.length t.stories then
    invalid_arg "Dataset.story: index out of range";
  t.stories.(i)

let stories t = t.stories

let stories_voted_by t u =
  let first = t.vote_offsets.(u) in
  Array.sub t.vote_ids first (t.vote_offsets.(u + 1) - first)

let vote_index t = (t.vote_offsets, t.vote_ids)

let total_votes t =
  Array.fold_left (fun acc s -> acc + Array.length s.Types.votes) 0 t.stories

let save_tsv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let pr fmt = Printf.fprintf oc fmt in
      pr "dlosn-dataset 1\n";
      pr "users %d\n" (n_users t);
      pr "follows %d\n" (Digraph.n_edges t.follows);
      Digraph.iter_edges t.follows (fun u v -> pr "%d\t%d\n" u v);
      pr "stories %d\n" (Array.length t.stories);
      Array.iter
        (fun (s : Types.story) ->
          pr "story\t%d\t%d\t%d\t%d\n" s.Types.id s.Types.initiator s.Types.topic
            (Array.length s.Types.votes);
          Array.iter
            (fun (v : Types.vote) -> pr "%d\t%.6f\n" v.Types.user v.Types.time)
            s.Types.votes)
        t.stories)

let load_tsv path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line () = input_line ic in
      let fail msg = failwith (Printf.sprintf "Dataset.load_tsv %s: %s" path msg) in
      let expect_header tag l =
        match String.split_on_char ' ' l with
        | [ t; v ] when t = tag -> (
          match int_of_string_opt v with
          | Some n -> n
          | None -> fail (tag ^ ": bad count"))
        | _ -> fail ("expected " ^ tag)
      in
      (if line () <> "dlosn-dataset 1" then fail "bad magic");
      let n = expect_header "users" (line ()) in
      let m = expect_header "follows" (line ()) in
      let g = Digraph.create n in
      for _ = 1 to m do
        match String.split_on_char '\t' (line ()) with
        | [ u; v ] -> Digraph.add_edge g (int_of_string u) (int_of_string v)
        | _ -> fail "bad edge line"
      done;
      let k = expect_header "stories" (line ()) in
      let stories =
        Array.init k (fun _ ->
            match String.split_on_char '\t' (line ()) with
            | [ "story"; id; initiator; topic; nv ] ->
              let nv = int_of_string nv in
              let votes =
                Array.init nv (fun _ ->
                    match String.split_on_char '\t' (line ()) with
                    | [ u; tm ] ->
                      {
                        Types.user = int_of_string u;
                        time = float_of_string tm;
                      }
                    | _ -> fail "bad vote line")
              in
              {
                Types.id = int_of_string id;
                initiator = int_of_string initiator;
                topic = int_of_string topic;
                votes;
              }
            | _ -> fail "bad story line")
      in
      make ~follows:g ~influence:(Digraph.reverse g) ~stories)

let pp ppf t =
  Format.fprintf ppf "dataset(%d users, %d follow edges, %d stories, %d votes)"
    (n_users t)
    (Digraph.n_edges t.follows)
    (n_stories t) (total_votes t)
