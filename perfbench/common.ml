(* Types and helpers shared by the three workloads. *)

let now = Unix.gettimeofday

(* A run is cut after this long, whatever it is doing: every loop checks
   it, so a wedged server fails the run instead of hanging it. *)
let run_deadline = ref infinity

let check_deadline what =
  if now () > !run_deadline then
    failwith (Printf.sprintf "run deadline passed during %s" what)

(* What one measured pass of a workload produced. *)
type pass = {
  lat_ms : float array;  (* one latency per operation *)
  units : float;  (* work units completed: stories, responses or votes *)
  wall_s : float;
  attempted : int;
  failed : int;
  errors : string list;  (* the first few failure messages *)
  work : (string * string) list;  (* counts that must repeat exactly *)
  observed : (string * string) list;  (* counts printed, free to vary *)
  refresh_ms : float array;  (* ingest-refit: refit scheduled -> serving *)
  layers : (string * float) list;  (* per-layer values, traced passes only *)
}

(* Failure bookkeeping for one pass. *)
type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

(* Run one operation; an exception or a [false] check counts it failed. *)
let attempt t what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | Ok () -> ()
  | Error msg -> fail t (what ^ ": " ^ msg)
  | exception (Failure msg | Invalid_argument msg) -> fail t (what ^ ": " ^ msg)
  | exception Unix.Unix_error (e, fn, _) ->
    fail t (Printf.sprintf "%s: %s: %s" what fn (Unix.error_message e))

(* A seeded shuffle (Fisher-Yates). *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let pct part whole = if whole > 0. then 100. *. part /. whole else 0.
