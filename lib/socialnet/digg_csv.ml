open Osn_graph

type id_maps = {
  user_of_raw : (int, int) Hashtbl.t;
  story_of_raw : (int, int) Hashtbl.t;
}

(* Fields may be bare integers or wrapped in double quotes. *)
let parse_int_field s =
  let s = String.trim s in
  let s =
    let n = String.length s in
    if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
    else s
  in
  int_of_string_opt s

let split_csv line = String.split_on_char ',' line

let parse_vote_line line =
  match split_csv line with
  | [ a; b; c ] -> (
    match (parse_int_field a, parse_int_field b, parse_int_field c) with
    | Some ts, Some voter, Some story -> Some (float_of_int ts, voter, story)
    | _ -> None)
  | _ -> None

let parse_friend_line line =
  match split_csv line with
  | [ a; b; c; d ] -> (
    match
      (parse_int_field a, parse_int_field b, parse_int_field c, parse_int_field d)
    with
    | Some mutual, Some ts, Some user, Some friend ->
      Some (mutual <> 0, float_of_int ts, user, friend)
    | _ -> None)
  | _ -> None

let fold_lines path f init =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc lineno =
        match input_line ic with
        | line -> go (f acc lineno line) (lineno + 1)
        | exception End_of_file -> acc
      in
      go init 1)

let load ?(min_votes = 2) ~votes ~friends () =
  let user_of_raw = Hashtbl.create 4096 in
  let story_of_raw = Hashtbl.create 4096 in
  let intern table raw =
    match Hashtbl.find_opt table raw with
    | Some id -> id
    | None ->
      let id = Hashtbl.length table in
      Hashtbl.add table raw id;
      id
  in
  (* pass 1: votes, bucketed per story *)
  let story_votes : (int, (float * int) list ref) Hashtbl.t =
    Hashtbl.create 4096
  in
  let () =
    fold_lines votes
      (fun () lineno line ->
        if String.trim line = "" then ()
        else
          match parse_vote_line line with
          | Some (ts, raw_voter, raw_story) ->
            let voter = intern user_of_raw raw_voter in
            let story = intern story_of_raw raw_story in
            let bucket =
              match Hashtbl.find_opt story_votes story with
              | Some b -> b
              | None ->
                let b = ref [] in
                Hashtbl.add story_votes story b;
                b
            in
            bucket := (ts, voter) :: !bucket
          | None ->
            (* tolerate a header on the first line only *)
            if lineno > 1 then
              failwith
                (Printf.sprintf "digg_votes: malformed row at line %d" lineno))
      ()
  in
  (* pass 2: friendships (edge user -> friend means user follows friend) *)
  let edges = ref [] in
  let () =
    fold_lines friends
      (fun () lineno line ->
        if String.trim line = "" then ()
        else
          match parse_friend_line line with
          | Some (mutual, _ts, raw_user, raw_friend) ->
            let u = intern user_of_raw raw_user in
            let v = intern user_of_raw raw_friend in
            edges := (u, v) :: !edges;
            if mutual then edges := (v, u) :: !edges
          | None ->
            if lineno > 1 then
              failwith
                (Printf.sprintf "digg_friends: malformed row at line %d" lineno))
      ()
  in
  let n_users = Hashtbl.length user_of_raw in
  let follows = Digraph.create n_users in
  List.iter (fun (u, v) -> Digraph.add_edge follows u v) !edges;
  (* assemble stories: sort votes, dedupe voters (first vote wins),
     re-base times to hours since the first vote *)
  let stories = ref [] in
  Hashtbl.iter
    (fun story_id bucket ->
      let votes = Array.of_list !bucket in
      Array.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) votes;
      let seen = Hashtbl.create (Array.length votes) in
      let deduped =
        Array.to_list votes
        |> List.filter (fun (_, voter) ->
               if Hashtbl.mem seen voter then false
               else begin
                 Hashtbl.add seen voter ();
                 true
               end)
      in
      match deduped with
      | [] -> ()
      | (t0, initiator) :: _ when List.length deduped >= min_votes ->
        let votes =
          Array.of_list
            (List.map
               (fun (ts, voter) ->
                 { Types.user = voter; time = (ts -. t0) /. 3600. })
               deduped)
        in
        stories :=
          { Types.id = story_id; initiator; topic = 0; votes } :: !stories
      | _ -> ())
    story_votes;
  let stories =
    List.sort (fun (a : Types.story) b -> compare a.Types.id b.Types.id) !stories
  in
  let dataset =
    Dataset.make ~follows ~influence:(Digraph.reverse follows)
      ~stories:(Array.of_list stories)
  in
  (dataset, { user_of_raw; story_of_raw })
