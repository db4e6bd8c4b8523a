(* ingest-refit: a dlosn server with a durable store (fsync on) takes
   replay cascades as 25-vote POST /observe batches, round-robin
   over 32 stories on one keep-alive connection, with a small seeded
   share of votes delivered out of order inside the lateness window.

   When a response says a refit was scheduled, only that story pauses
   until GET /live shows the fit serving; the others keep flowing.  The
   pause makes the profile each fit sees, and so the number of fits,
   independent of timing.  Each pass replays the same cascades under
   fresh story names, so every pass does identical work: cold first
   fits, warm drift-triggered refits and store appends. *)

open Common

let n_stories = 32
let batch_votes = 25
let swap_share = 0.03  (* adjacent votes swapped when < 0.5 h apart *)
(* How often a paused story's /live is polled, and how long the loop
   sleeps when every story is paused.  Polls queue behind refits on the
   server's workers like /observe does; polling less often moved that
   wait into /observe and made votes/s swing by a third between runs. *)
let poll_every = 0.005
let idle_sleep = 0.001

type stream = {
  replay : Socialnet.Replay.stream;
  votes : Socialnet.Replay.event array;  (* delivery order *)
}

type env = {
  server : Proc.server;
  conn : Hclient.conn;
  streams : stream array;
  simulate_ms : float;  (* mean Replay.simulate time per stream *)
  seed : int;
  mutable sample_request : string;
  mutable sample_body : string;
}

(* The cascades are the same for every seed (replay seeds 1..32): the
   number of refits differs a lot from cascade to cascade, so a seeded
   draw of 32 would change the amount of work.  The run seed sets the
   round-robin order and which votes arrive out of order. *)
let make_streams ~seed =
  let st = Random.State.make [| seed; 0x1e57 |] in
  let t0 = now () in
  let replays = Array.init n_stories (fun i -> Socialnet.Replay.simulate ~seed:(i + 1) ()) in
  let simulate_ms = (now () -. t0) *. 1e3 /. float_of_int n_stories in
  let streams =
    Array.map
      (fun (r : Socialnet.Replay.stream) ->
        let v = Array.copy r.Socialnet.Replay.events in
        for j = 0 to Array.length v - 2 do
          if
            Random.State.float st 1. < swap_share
            && v.(j + 1).Socialnet.Replay.time -. v.(j).Socialnet.Replay.time < 0.5
          then begin
            let x = v.(j) in
            v.(j) <- v.(j + 1);
            v.(j + 1) <- x
          end
        done;
        { replay = r; votes = v })
      replays
  in
  shuffle st streams;
  (streams, simulate_ms)

let setup ~dlosn ~seed ~name =
  let streams, simulate_ms = make_streams ~seed in
  let store = Filename.concat (Filename.concat (Proc.run_dir ()) name) "store" in
  (* two workers, so /observe can proceed beside one refit *)
  let server = Proc.start_server ~dlosn ~name ~jobs:2 [ "--store"; store ] in
  {
    server;
    conn = Hclient.connect ~port:server.Proc.port;
    streams;
    simulate_ms;
    seed;
    sample_request = "";
    sample_body = "";
  }

let n_batches s = (Array.length s.votes + batch_votes - 1) / batch_votes

let batch_body s ~story ~batch =
  let module J = Serve.Tiny_json in
  let lo = batch * batch_votes in
  let hi = min (Array.length s.votes) (lo + batch_votes) in
  let num x = J.Number x in
  let nums a = J.List (List.map num (Array.to_list a)) in
  let votes =
    List.init (hi - lo) (fun k ->
        let e = s.votes.(lo + k) in
        J.Object
          [
            ("voter", num (float_of_int e.Socialnet.Replay.voter));
            ("time", num e.Socialnet.Replay.time);
            ("distance", num (float_of_int e.Socialnet.Replay.distance));
          ])
  in
  let r = s.replay in
  let head =
    if batch > 0 then []
    else
      [
        ("times", nums r.Socialnet.Replay.times);
        ("population", nums (Array.map float_of_int r.Socialnet.Replay.population));
        ("max_distance", num (float_of_int r.Socialnet.Replay.max_distance));
      ]
  in
  (J.to_string (J.Object ((("story", J.String story) :: ("votes", J.List votes) :: head))), hi - lo)

let field name json = Serve.Tiny_json.member name json

let int_field name json =
  match Option.bind (field name json) Serve.Tiny_json.to_int with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" name)

(* The one story object of GET /live?story=NAME. *)
let live_story env name =
  let body = Hclient.call_ok env.conn "GET" ("/live?story=" ^ name) in
  match Serve.Tiny_json.parse body with
  | Error e -> failwith ("/live: " ^ e)
  | Ok json -> (
    match Option.bind (field "stories" json) Serve.Tiny_json.to_list with
    | Some [ s ] -> s
    | _ -> failwith ("/live has no story " ^ name))

let scrape env = Hclient.call_ok env.conn "GET" "/metrics"

let run_pass env ~traced ~pass =
  let t = tally () in
  let names = Array.init n_stories (fun i -> Printf.sprintf "s%d-p%d-%d" env.seed pass i) in
  let sent_votes = Array.make n_stories 0 in
  let flow = Pauses.create (Array.map n_batches env.streams) in
  let lats = ref [] in
  let ingested = ref 0 and batches = ref 0 and scheduled = ref 0 in
  let last_poll = Array.make n_stories 0. in
  let op = ref 0 in
  let before = scrape env in
  let poll i =
    last_poll.(i) <- now ();
    incr op;
    let s =
      Spans.with_ ~op:!op "live.poll" (fun _ -> live_story env names.(i))
    in
    if Serve.Tiny_json.member "refit_inflight" s = Some (Serve.Tiny_json.Bool false)
    then Pauses.resumed flow i ~now:(now ())
  in
  let t_start = now () in
  while not (Pauses.finished flow) do
    check_deadline "ingest-refit";
    (match Pauses.next flow with
    | Some i ->
      let b = Pauses.batch flow i in
      incr op;
      let body, nv =
        Spans.with_ ~op:!op "client.render" (fun _ ->
            batch_body env.streams.(i) ~story:names.(i) ~batch:b)
      in
      let req = Hclient.request_bytes ~body "POST" "/observe" in
      if env.sample_request = "" then begin
        env.sample_request <- req;
        env.sample_body <- body
      end;
      sent_votes.(i) <- sent_votes.(i) + nv;
      incr batches;
      let sent = now () in
      let outcome =
        try
          Hclient.send env.conn req ~deadline:(sent +. Hclient.timeout_s);
          Ok (Hclient.await env.conn ~deadline:(sent +. Hclient.timeout_s))
        with Failure msg -> Error msg
      in
      let got = now () in
      Spans.add ~op:!op "ingest.observe" sent got;
      t.attempted <- t.attempted + 1;
      let refit =
        match outcome with
        | Error msg -> failwith ("ingest-refit: " ^ msg)
        | Ok r when r.Hclient.status <> 200 ->
          fail t (Printf.sprintf "%s batch %d: status %d" names.(i) b r.Hclient.status);
          lats := infinity :: !lats;
          false
        | Ok r -> (
          lats := ((got -. sent) *. 1e3) :: !lats;
          match
            Spans.with_ ~op:!op "client.parse" (fun _ -> Serve.Tiny_json.parse r.Hclient.body)
          with
          | Error e ->
            fail t ("bad /observe JSON: " ^ e);
            false
          | Ok json ->
            ingested := !ingested + int_field "ingested" json;
            field "refit_scheduled" json = Some (Serve.Tiny_json.Bool true))
      in
      if refit then incr scheduled;
      Pauses.answered flow i ~sent ~scheduled:refit
    | None ->
      incr op;
      Proc.sleep idle_sleep);
    List.iter
      (fun i -> if now () -. last_poll.(i) >= poll_every then poll i)
      (Pauses.paused flow)
  done;
  let wall = now () -. t_start in
  (* per story: every vote sent is accounted for, and a fit serves *)
  let fits = ref 0 and refits = ref 0 in
  Array.iteri
    (fun i name ->
      attempt t ("story " ^ name) (fun () ->
          let s = live_story env name in
          fits := !fits + int_field "fits" s;
          refits := !refits + int_field "refits" s;
          let accounted =
            int_field "votes" s + int_field "dropped_late" s
            + int_field "dropped_range" s + int_field "beyond_horizon" s
          in
          if accounted <> sent_votes.(i) then
            Error (Printf.sprintf "%d votes sent, %d accounted" sent_votes.(i) accounted)
          else if field "fit" s = Some Serve.Tiny_json.Null then Error "no serving fit"
          else Ok ()))
    names;
  let after = scrape env in
  let d name = Hclient.metric after name -. Hclient.metric before name in
  let work =
    [
      ("votes", string_of_int (Array.fold_left ( + ) 0 sent_votes));
      ("ingested", string_of_int !ingested);
      ("batches", string_of_int !batches);
      ("refits_scheduled", string_of_int !scheduled);
      ("fits", string_of_int !fits);
      ("refits", string_of_int !refits);
      ("store_appends", Printf.sprintf "%.0f" (d "store_appends_total"));
    ]
  in
  let refresh = Pauses.refresh_s flow in
  let nb = float_of_int !batches in
  let layers =
    if not traced then []
    else begin
      let spans = Spans.take () in
      let self = Spans.self_by_name spans in
      let handler = d {|serve_request_ns_sum{label="observe"}|} *. 1e-9 in
      let handled = d {|serve_request_ns_count{label="observe"}|} in
      let refit_s = d "live_refit_ns_sum" *. 1e-9 and refit_n = d "live_refit_ns_count" in
      let obs_s = self "ingest.observe" in
      let parts =
        [
          ("serve.server.observe", handler);
          ("serve.transport", obs_s -. handler);
          ("live.poll", self "live.poll");
          ("perfbench.client", self "client.render" +. self "client.parse");
        ]
      in
      let refresh_ms = Array.map (fun s -> s *. 1e3) refresh in
      [
        ("serve.server.observe_handler_ms", handler *. 1e3 /. handled);
        ("serve.server.observe_wait_ms", (obs_s -. handler) *. 1e3 /. nb);
        ("live.fits", float_of_int !fits);
        ("live.refits", float_of_int !refits);
        ("live.refit_ms", refit_s *. 1e3 /. refit_n);
        ("live.refit_wait_ms", Bstats.mean refresh_ms -. (refit_s *. 1e3 /. refit_n));
        ("live.refresh_p50_ms", Bstats.percentile refresh_ms ~q:500);
        ("live.refresh_p90_ms", Bstats.percentile refresh_ms ~q:900);
        ("store.append_bytes", d "store_append_bytes_total");
      ]
      @ List.map (fun (k, v) -> ("ingest-refit.share." ^ k ^ "_pct", pct v wall)) parts
      @ [
          ( "ingest-refit.unattributed_pct",
            100. -. List.fold_left (fun a (_, v) -> a +. pct v wall) 0. parts );
        ]
    end
  in
  {
    lat_ms = Array.of_list (List.rev !lats);
    units = float_of_int !ingested;
    wall_s = wall;
    attempted = t.attempted;
    failed = t.failed;
    errors = List.rev t.errors;
    work;
    observed = [];
    refresh_ms = Array.map (fun s -> s *. 1e3) refresh;
    layers;
  }

let teardown env = Hclient.close env.conn
