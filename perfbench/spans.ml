(* The harness's own spans: one per call it makes into a layer, with a
   parent and the id of the operation (story, request, batch) it belongs
   to.  Recording is off in untraced runs; spans stay in memory and are
   written once, when the run ends. *)

type span = {
  id : int;
  parent : int;  (* 0 for an operation's root span *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let recorded : span list ref = ref []
let last_id = ref 0

let fresh () =
  incr last_id;
  !last_id

let add ?(parent = 0) ~op name t0 t1 =
  if !on then recorded := { id = fresh (); parent; op; name; t0; t1 } :: !recorded

(* [with_ name f] runs [f id] inside a span; [id] parents nested spans. *)
let with_ ?(parent = 0) ~op name f =
  if not !on then f 0
  else begin
    let id = fresh () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      recorded :=
        { id; parent; op; name; t0; t1 = Unix.gettimeofday () } :: !recorded
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

(* Self time (duration minus direct children) summed per span name. *)
let self_by_name spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d =
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace self s.name
        (d +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    spans;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt self name)

(* Spans already handed to a workload, kept for the end-of-run dump. *)
let archived : span list ref = ref []

let take () =
  let s = List.rev !recorded in
  recorded := [];
  archived := !archived @ s;
  s

let to_json spans =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        {|{"id":%d,"parent":%d,"op":%d,"name":"%s","start_ns":%.0f,"end_ns":%.0f}|}
        s.id s.parent s.op s.name (s.t0 *. 1e9) (s.t1 *. 1e9))
    spans;
  Buffer.add_string b "]";
  Buffer.contents b
