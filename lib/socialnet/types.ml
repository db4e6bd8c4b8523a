type vote = { user : int; time : float }

type story = {
  id : int;
  initiator : int;
  topic : int;
  votes : vote array;
}

let story_vote_count s = Array.length s.votes

let votes_before s t =
  (* votes are sorted: binary search for the cut point *)
  let n = Array.length s.votes in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.votes.(mid).time <= t then lo := mid + 1 else hi := mid
  done;
  Array.sub s.votes 0 !lo

let voters s = Array.map (fun v -> v.user) s.votes

let check_story s =
  let n = Array.length s.votes in
  if n = 0 then invalid_arg "story has no votes";
  if s.votes.(0).user <> s.initiator then
    invalid_arg "first vote must be the initiator";
  if s.votes.(0).time <> 0. then invalid_arg "initiator vote must be at t=0";
  (* the voters seen so far, open-addressed in a table of 2^bits slots
     at most half full: slot k holds seen.(k) when its [used] byte is
     set.  A voter's first slot is the top bits of its id times 2^63/phi,
     so any id works, dense or far apart. *)
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let shift = 63 - !bits and mask = (1 lsl !bits) - 1 in
  let seen = Array.make (mask + 1) 0 and used = Bytes.make (mask + 1) '\000' in
  for i = 0 to n - 1 do
    let v = s.votes.(i) in
    if i > 0 && v.time < s.votes.(i - 1).time then
      invalid_arg "votes must be sorted by time";
    let k = ref ((v.user * 0x4F1B_BCDC_BFA5_3E0B) lsr shift) in
    while Bytes.get used !k <> '\000' && seen.(!k) <> v.user do
      k := (!k + 1) land mask
    done;
    if Bytes.get used !k <> '\000' then invalid_arg "duplicate voter";
    Bytes.set used !k '\001';
    seen.(!k) <- v.user
  done

let pp_story ppf s =
  Format.fprintf ppf "story %d (initiator %d, topic %d, %d votes)" s.id
    s.initiator s.topic (Array.length s.votes)
