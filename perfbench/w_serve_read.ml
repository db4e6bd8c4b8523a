(* serve-read: POST /predict batches against one fit held by a separate
   dlosn server, from two keep-alive connections that each keep one
   batch in flight (a closed loop).

   Most batches name t values from a hot set already in the fit's
   64-entry solution memo.  A seeded tenth of the batches also names one
   t value never seen before; the memo is FIFO, so each such value is a
   solve and also evicts a hot entry, which the next batch that needs it
   solves again.  Nothing is fitted after set-up, so this workload is the
   control for fit-side changes and the target for transport, JSON and
   memo changes. *)

open Common

let connections = 2

(* The client and the server share the machine's two cores, and the
   client is busy: it renders 200-point batches and checks every answer.
   One worker plus the client fill both cores.  A second worker domain
   oversubscribes them: throughput then fell and swung by a tenth
   between identical runs (350-395 against 418-435 requests/s). *)
let server_jobs = 1
let points_per_batch = 200
let ts_per_batch = 20
(* A narrow band of forecast hours, so every solve costs about the same
   and a run's time does not hinge on which hours a seed drew. *)
let t_step = 1. /. 16.
let hot_ts = Array.init 32 (fun j -> 3. +. (t_step *. float_of_int j))
let miss_every = 10  (* one batch in ten carries a never-seen t *)

type env = {
  server : Proc.server;
  conns : Hclient.conn array;
  fit : string;
  xs : float array;  (* the x grid batches draw from *)
  st : Random.State.t;
  seen : (int64 * int64, int64) Hashtbl.t;  (* (x, t) bits -> density bits *)
  mutable sample_request : string;
  mutable sample_response : string;
}

let json_floats a =
  "[" ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") a)) ^ "]"

(* The fit request: the batch density of one replay cascade.  It is the
   same for every seed; the seed draws the batches. *)
let fit_body () =
  let stream = Socialnet.Replay.simulate ~seed:1 () in
  let obs = Socialnet.Replay.batch_density stream in
  let ints a = json_floats (Array.map float_of_int a) in
  Printf.sprintf
    {|{"distances":%s,"times":%s,"density":[%s],"population":%s,"seed":7}|}
    (ints obs.Socialnet.Density.distances)
    (json_floats obs.Socialnet.Density.times)
    (String.concat "," (Array.to_list (Array.map json_floats obs.Socialnet.Density.density)))
    (ints stream.Socialnet.Replay.population)

let predict_body ~fit points =
  let b = Buffer.create (points_per_batch * 48) in
  Printf.bprintf b {|{"fit":"%s","points":[|} fit;
  Array.iteri
    (fun i (x, t) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "[%.17g,%.17g]" x t)
    points;
  Buffer.add_string b "]}";
  Buffer.contents b

let number_field name json =
  Option.bind (Serve.Tiny_json.member name json) Serve.Tiny_json.to_float

let setup ~dlosn ~seed ~name =
  let body = fit_body () in
  let server = Proc.start_server ~dlosn ~name ~jobs:server_jobs [] in
  let conns = Array.init connections (fun _ -> Hclient.connect ~port:server.Proc.port) in
  let resp = Hclient.call_ok conns.(0) ~body "POST" "/fit" in
  let json =
    match Serve.Tiny_json.parse resp with
    | Ok j -> j
    | Error e -> failwith ("fit response: " ^ e)
  in
  let fit =
    match Option.bind (Serve.Tiny_json.member "fit" json) Serve.Tiny_json.to_string_opt with
    | Some f -> f
    | None -> failwith "fit response has no id"
  in
  let params = Option.get (Serve.Tiny_json.member "params" json) in
  let l = Option.get (number_field "l" params) and big_l = Option.get (number_field "L" params) in
  (* x on a 0.1 grid inside the fitted domain, so points repeat exactly *)
  let xs =
    Array.init
      (int_of_float (Float.round ((big_l -. l) *. 10.)) + 1)
      (fun k -> float_of_int (int_of_float (Float.round (l *. 10.)) + k) /. 10.)
  in
  (* fill the memo with the hot set, in order *)
  let fill = Array.map (fun t -> (xs.(0), t)) hot_ts in
  ignore (Hclient.call_ok conns.(0) ~body:(predict_body ~fit fill) "POST" "/predict");
  {
    server;
    conns;
    fit;
    xs;
    st = Random.State.make [| seed; 0x5e7 |];
    seen = Hashtbl.create 4096;
    sample_request = "";
    sample_response = "";
  }

(* A pass's batches: [n] point sets, exactly one in [miss_every] with a
   never-seen t, at seeded positions. *)
let batches env n =
  let misses = Array.init n (fun i -> i mod miss_every = 0) in
  shuffle env.st misses;
  Array.map
    (fun miss ->
      let ts = Array.init ts_per_batch (fun _ -> hot_ts.(Random.State.int env.st (Array.length hot_ts))) in
      if miss then begin
        let k = Random.State.int env.st ts_per_batch in
        ts.(k) <- ts.(k) +. (t_step *. Random.State.float env.st 1.)
      end;
      let per_t = points_per_batch / ts_per_batch in
      Array.init points_per_batch (fun p ->
          (env.xs.(Random.State.int env.st (Array.length env.xs)), ts.(p / per_t))))
    misses

(* 200 with one finite density per point, and any (x, t) seen before
   answered with the same bits. *)
let check env points body =
  match Serve.Tiny_json.parse body with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok json -> (
    match Option.bind (Serve.Tiny_json.member "results" json) Serve.Tiny_json.to_list with
    | None -> Error "no results"
    | Some results when List.length results <> Array.length points ->
      Error (Printf.sprintf "%d results for %d points" (List.length results) (Array.length points))
    | Some results ->
      let rec go i = function
        | [] -> Ok ()
        | r :: rest -> (
          match number_field "density" r with
          | Some d when Float.is_finite d ->
            let x, t = points.(i) in
            let key = (Int64.bits_of_float x, Int64.bits_of_float t) in
            let bits = Int64.bits_of_float d in
            (match Hashtbl.find_opt env.seen key with
            | Some b when not (Int64.equal b bits) -> Error (Printf.sprintf "(%g, %g) changed" x t)
            | Some _ -> go (i + 1) rest
            | None ->
              Hashtbl.add env.seen key bits;
              go (i + 1) rest)
          | _ -> Error (Printf.sprintf "point %d: no finite density" i))
      in
      go 0 results)

let scrape env =
  Hclient.call_ok env.conns.(0) "GET" "/metrics"

let run_pass env ~traced ~batches:n =
  let t = tally () in
  let work = batches env n in
  let lat = Array.make n nan in
  let before = scrape env in
  let inflight = Array.make connections None in  (* (batch, points, sent) *)
  let next = ref 0 and done_ = ref 0 in
  let send k =
    if !next < n then begin
      let i = !next in
      incr next;
      let points = work.(i) in
      let req =
        Spans.with_ ~op:(i + 1) "client.render" (fun _ ->
            Hclient.request_bytes ~body:(predict_body ~fit:env.fit points) "POST" "/predict")
      in
      if env.sample_request = "" then env.sample_request <- req;
      let sent = now () in
      t.attempted <- t.attempted + 1;
      match Hclient.send env.conns.(k) req ~deadline:(sent +. Hclient.timeout_s) with
      | () -> inflight.(k) <- Some (i, points, sent)
      | exception Failure msg ->
        lat.(i) <- infinity;
        fail t msg;
        incr done_
    end
  in
  let t_start = now () in
  for k = 0 to connections - 1 do send k done;
  while !done_ < n do
    check_deadline "serve-read";
    let fds =
      List.filter_map
        (fun k -> Option.map (fun _ -> Hclient.fd env.conns.(k)) inflight.(k))
        (List.init connections Fun.id)
    in
    if fds = [] then failwith "serve-read: no request in flight";
    let ready, _, _ = Hclient.select_retry fds [] 1. in
    Array.iteri
      (fun k c ->
        match inflight.(k) with
        | Some (i, points, sent) when List.mem (Hclient.fd c) ready -> (
          match Hclient.fill c; Hclient.take_response c with
          | None ->
            if now () > sent +. Hclient.timeout_s then failwith "serve-read: response timed out"
          | Some r ->
            let got = now () in
            inflight.(k) <- None;
            incr done_;
            lat.(i) <- (got -. sent) *. 1e3;
            Spans.add ~op:(i + 1) "serve-read.request" sent got;
            if env.sample_response = "" then env.sample_response <- r.Hclient.body;
            (match
               Spans.with_ ~op:(i + 1) "client.parse" (fun _ ->
                   if r.Hclient.status <> 200 then Error (Printf.sprintf "status %d" r.Hclient.status)
                   else check env points r.Hclient.body)
             with
            | Ok () -> ()
            | Error msg ->
              lat.(i) <- infinity;
              fail t (Printf.sprintf "batch %d: %s" i msg));
            send k
          | exception Failure msg ->
            fail t msg;
            failwith ("serve-read: " ^ msg))
        | _ -> ())
      env.conns
  done;
  let wall = now () -. t_start in
  let after = scrape env in
  let d name = Hclient.metric after name -. Hclient.metric before name in
  let solves = d "pde_solves_total" in
  let fn = float_of_int n in
  let layers =
    if not traced then []
    else begin
      let spans = Spans.take () in
      let self = Spans.self_by_name spans in
      let handler = d {|serve_request_ns_sum{label="predict"}|} *. 1e-9 in
      let handled = d {|serve_request_ns_count{label="predict"}|} in
      let pde = d "pde_solve_ns_sum" *. 1e-9 in
      let req_s = self "serve-read.request" in
      let client = self "client.render" +. self "client.parse" in
      let capacity = wall *. float_of_int connections in
      let parts =
        [
          ("numerics.pde", pde);
          ("serve.server.handler", handler -. pde);
          ("serve.transport", req_s -. handler);
          ("perfbench.client", client);
        ]
      in
      [
        ("serve.server.predict_handler_ms", handler *. 1e3 /. handled);
        ("serve.server.predict_wait_ms", (req_s -. handler) *. 1e3 /. fn);
        ("serve.server.solves_per_request", solves /. fn);
      ]
      @ List.map (fun (k, v) -> ("serve-read.share." ^ k ^ "_pct", pct v capacity)) parts
      @ [
          ( "serve-read.unattributed_pct",
            100. -. List.fold_left (fun a (_, v) -> a +. pct v capacity) 0. parts );
        ]
    end
  in
  {
    lat_ms = lat;
    units = fn;
    wall_s = wall;
    attempted = t.attempted;
    failed = t.failed;
    errors = List.rev t.errors;
    work =
      [
        ("requests", string_of_int n);
        ("points", string_of_int (n * points_per_batch));
        ("misses", string_of_int ((n + miss_every - 1) / miss_every));
      ];
    (* the two connections interleave on the shared memo, so the number
       of solves varies a little with timing *)
    observed = [ ("pde_solves", Printf.sprintf "%.0f" solves) ];
    refresh_ms = [||];
    layers;
  }

let teardown env = Array.iter Hclient.close env.conns
