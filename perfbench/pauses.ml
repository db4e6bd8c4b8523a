(* Per-story flow control for the ingest-refit workload.

   Stories are fed round-robin.  When an /observe response says a refit
   was scheduled, only that story pauses until /live reports the refit
   done; the others keep flowing.  Pausing makes the profile each refit
   sees — and so the number of refits — independent of timing. *)

type state = Ready | Paused of float (* send time of the scheduling batch *) | Done

type t = {
  states : state array;
  next_batch : int array;
  n_batches : int array;
  mutable cursor : int;
  mutable refresh_s : float list;  (* scheduling send -> fit serving *)
}

let create n_batches =
  {
    states = Array.map (fun n -> if n = 0 then Done else Ready) n_batches;
    next_batch = Array.make (Array.length n_batches) 0;
    n_batches = Array.copy n_batches;
    cursor = 0;
    refresh_s = [];
  }

(* The next ready story after the previous pick, in round-robin order. *)
let next t =
  let n = Array.length t.states in
  let rec go k =
    if k = n then None
    else
      let i = (t.cursor + k) mod n in
      if t.states.(i) = Ready then begin
        t.cursor <- (i + 1) mod n;
        Some i
      end
      else go (k + 1)
  in
  go 0

let batch t i = t.next_batch.(i)

let exhausted t i = t.next_batch.(i) >= t.n_batches.(i)

(* A batch of story [i], sent at [sent], has been answered. *)
let answered t i ~sent ~scheduled =
  t.next_batch.(i) <- t.next_batch.(i) + 1;
  t.states.(i) <-
    (if scheduled then Paused sent else if exhausted t i then Done else Ready)

(* /live, read at [now], reports no refit in flight for paused story [i]. *)
let resumed t i ~now =
  match t.states.(i) with
  | Paused sent ->
    t.refresh_s <- (now -. sent) :: t.refresh_s;
    t.states.(i) <- (if exhausted t i then Done else Ready)
  | Ready | Done -> ()

let paused t =
  let acc = ref [] in
  Array.iteri
    (fun i s -> match s with Paused _ -> acc := i :: !acc | _ -> ())
    t.states;
  List.rev !acc

let finished t = Array.for_all (fun s -> s = Done) t.states
let refresh_s t = Array.of_list (List.rev t.refresh_s)
