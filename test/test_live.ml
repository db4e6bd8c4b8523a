(* Tests for the live-ingestion subsystem: incremental density
   profiles (property-tested equivalent to batch Density.observe),
   drift detection, warm-started fits, store v3 fields, and the
   end-to-end /observe -> refit-daemon loop against a live server. *)

module J = Serve.Tiny_json
module Profile = Live.Profile
module Drift = Live.Drift

(* --- helpers --- *)

let with_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlosn-live-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* random vote set over a labelled user population; returns
   (assignment, votes, population) for [max_distance] groups *)
let random_votes rng ~max_distance ~horizon =
  let n_users = 5 + Numerics.Rng.int rng 60 in
  (* labels 0 .. max_distance+1 so out-of-range labels are exercised *)
  let assignment =
    Array.init n_users (fun _ -> Numerics.Rng.int rng (max_distance + 2))
  in
  let n_votes = Numerics.Rng.int rng 80 in
  let votes =
    Array.init n_votes (fun _ ->
        {
          Socialnet.Types.user = Numerics.Rng.int rng n_users;
          time =
            Numerics.Rng.uniform rng 0. (float_of_int (horizon + 1));
        })
  in
  let population = Array.make max_distance 0 in
  Array.iter
    (fun d ->
      if d >= 1 && d <= max_distance then
        population.(d - 1) <- population.(d - 1) + 1)
    assignment;
  (assignment, votes, population)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Numerics.Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* --- Profile: incremental == batch (the core property) --- *)

let prop_profile_matches_batch_shuffled =
  QCheck.Test.make ~count:150
    ~name:"live profile == batch Density.observe (any order, no window)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let max_distance = 1 + Numerics.Rng.int rng 6 in
      let horizon = 2 + Numerics.Rng.int rng 5 in
      let times = Array.init horizon (fun i -> float_of_int (i + 1)) in
      let assignment, votes, population =
        random_votes rng ~max_distance ~horizon
      in
      let story =
        { Socialnet.Types.id = 0; initiator = 0; topic = 0; votes }
      in
      let batch =
        Socialnet.Density.observe story ~assignment ~max_distance ~times
      in
      let profile =
        Profile.create ~lateness:infinity ~max_distance ~times ~population ()
      in
      let order = Array.init (Array.length votes) Fun.id in
      shuffle rng order;
      Array.iter
        (fun k ->
          let v = votes.(k) in
          ignore
            (Profile.add profile
               ~distance:assignment.(v.Socialnet.Types.user)
               ~time:v.Socialnet.Types.time))
        order;
      (* bit-equality: same distances, times, population and density *)
      Profile.density profile = batch)

let prop_profile_matches_batch_ordered =
  QCheck.Test.make ~count:150
    ~name:"live profile == batch Density.observe (time order, finite window)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let max_distance = 1 + Numerics.Rng.int rng 6 in
      let horizon = 2 + Numerics.Rng.int rng 5 in
      let times = Array.init horizon (fun i -> float_of_int (i + 1)) in
      let assignment, votes, population =
        random_votes rng ~max_distance ~horizon
      in
      let story =
        { Socialnet.Types.id = 0; initiator = 0; topic = 0; votes }
      in
      let batch =
        Socialnet.Density.observe story ~assignment ~max_distance ~times
      in
      let profile =
        Profile.create ~lateness:0.5 ~max_distance ~times ~population ()
      in
      let sorted = Array.copy votes in
      Array.sort
        (fun a b ->
          compare a.Socialnet.Types.time b.Socialnet.Types.time)
        sorted;
      Array.iter
        (fun (v : Socialnet.Types.vote) ->
          ignore
            (Profile.add profile
               ~distance:assignment.(v.Socialnet.Types.user)
               ~time:v.Socialnet.Types.time))
        sorted;
      (* in-order arrival never drops, whatever the window *)
      Profile.dropped_late profile = 0 && Profile.density profile = batch)

let prop_profile_matches_batch_jittered =
  QCheck.Test.make ~count:150
    ~name:"live profile == batch (arrival jitter within the window)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let max_distance = 1 + Numerics.Rng.int rng 6 in
      let horizon = 2 + Numerics.Rng.int rng 5 in
      let times = Array.init horizon (fun i -> float_of_int (i + 1)) in
      let assignment, votes, population =
        random_votes rng ~max_distance ~horizon
      in
      let story =
        { Socialnet.Types.id = 0; initiator = 0; topic = 0; votes }
      in
      let batch =
        Socialnet.Density.observe story ~assignment ~max_distance ~times
      in
      let lateness = 2. in
      let profile =
        Profile.create ~lateness ~max_distance ~times ~population ()
      in
      (* sort by (event time + arrival jitter < lateness): every vote is
         within the window when it arrives, so none may drop *)
      let keyed =
        Array.map
          (fun (v : Socialnet.Types.vote) ->
            ( v.Socialnet.Types.time
              +. Numerics.Rng.uniform rng 0. (lateness *. 0.99),
              v ))
          votes
      in
      Array.sort (fun (a, _) (b, _) -> compare a b) keyed;
      Array.iter
        (fun (_, (v : Socialnet.Types.vote)) ->
          ignore
            (Profile.add profile
               ~distance:assignment.(v.Socialnet.Types.user)
               ~time:v.Socialnet.Types.time))
        keyed;
      Profile.dropped_late profile = 0 && Profile.density profile = batch)

let test_profile_late_drop () =
  let profile =
    Profile.create ~lateness:1. ~max_distance:3
      ~times:[| 1.; 2.; 3. |] ~population:[| 10; 10; 10 |] ()
  in
  Alcotest.(check bool) "fresh vote lands" true
    (Profile.add profile ~distance:1 ~time:2.5 = Profile.Added);
  Alcotest.(check bool) "within window lands" true
    (Profile.add profile ~distance:2 ~time:1.6 = Profile.Added);
  Alcotest.(check bool) "older than window drops" true
    (Profile.add profile ~distance:1 ~time:1.2 = Profile.Late);
  Alcotest.(check int) "dropped_late counted" 1 (Profile.dropped_late profile);
  Alcotest.(check int) "votes" 2 (Profile.votes profile);
  Alcotest.(check bool) "out of range" true
    (Profile.add profile ~distance:9 ~time:2.6 = Profile.Out_of_range);
  Alcotest.(check bool) "beyond horizon" true
    (Profile.add profile ~distance:1 ~time:7. = Profile.Beyond_horizon);
  Alcotest.(check (float 0.) ) "watermark advanced" 7.
    (Profile.watermark profile)

let test_profile_replay_stream () =
  (* the replay adapter's full stream folds to exactly its own batch
     reference *)
  let stream = Socialnet.Replay.simulate ~seed:11 () in
  let profile =
    Profile.create ~lateness:infinity
      ~max_distance:stream.Socialnet.Replay.max_distance
      ~times:stream.Socialnet.Replay.times
      ~population:stream.Socialnet.Replay.population ()
  in
  Array.iter
    (fun (e : Socialnet.Replay.event) ->
      ignore
        (Profile.add profile ~distance:e.Socialnet.Replay.distance
           ~time:e.Socialnet.Replay.time))
    stream.Socialnet.Replay.events;
  Alcotest.(check bool) "profile == batch_density" true
    (Profile.density profile = Socialnet.Replay.batch_density stream)

let test_profile_cursor_resume () =
  let times = [| 1.; 2.; 3. |] and population = [| 10; 10 |] in
  let profile =
    Profile.create ~lateness:1. ~watermark:2.5 ~max_distance:2 ~times
      ~population ()
  in
  Alcotest.(check (float 0.)) "watermark resumed" 2.5
    (Profile.watermark profile);
  (* pre-cursor votes are late relative to the resumed clock *)
  Alcotest.(check bool) "pre-cursor vote drops" true
    (Profile.add profile ~distance:1 ~time:1.0 = Profile.Late);
  Alcotest.(check bool) "post-cursor vote lands" true
    (Profile.add profile ~distance:1 ~time:2.8 = Profile.Added)

(* --- drift --- *)

let drift_obs =
  {
    Socialnet.Density.distances = [| 1; 2 |];
    times = [| 1.; 2.; 3. |];
    density = [| [| 2.; 4.; 6. |]; [| 1.; 2.; 0. |] |];
    population = [| 50; 50 |];
  }

let test_drift_relative_error () =
  (* perfect prediction: zero error over the t > 1 cells with data *)
  let exact ~x ~t =
    let ix = int_of_float x - 1 and it = int_of_float t - 1 in
    drift_obs.Socialnet.Density.density.(ix).(it)
  in
  let err, cells =
    Drift.relative_error ~predict:exact ~obs:drift_obs
      ~times:drift_obs.Socialnet.Density.times
  in
  Alcotest.(check int) "cells: t>1 with positive density" 3 cells;
  Alcotest.(check (float 1e-12)) "exact fit has zero drift" 0. err;
  (* uniformly 50% low -> drift 0.5 *)
  let half ~x ~t = exact ~x ~t /. 2. in
  let err, _ =
    Drift.relative_error ~predict:half ~obs:drift_obs
      ~times:drift_obs.Socialnet.Density.times
  in
  Alcotest.(check (float 1e-12)) "half fit drifts 0.5" 0.5 err;
  (* restricting times restricts the cells *)
  let _, cells =
    Drift.relative_error ~predict:exact ~obs:drift_obs ~times:[| 1.; 2. |]
  in
  Alcotest.(check int) "restricted times" 2 cells;
  let err, cells =
    Drift.relative_error ~predict:exact ~obs:drift_obs ~times:[||]
  in
  Alcotest.(check int) "no times, no cells" 0 cells;
  Alcotest.(check (float 0.)) "no times, zero error" 0. err

let test_drift_should_refit () =
  let cfg = { Drift.threshold = 0.25; min_votes = 8; min_new_votes = 4 } in
  let go ?(drift = 0.3) ?(cells = 3) ?(votes = 20) ?(votes_at_fit = 10) () =
    Drift.should_refit cfg ~drift ~cells ~votes ~votes_at_fit
  in
  Alcotest.(check bool) "fires past threshold" true (go ());
  Alcotest.(check bool) "below threshold holds" false (go ~drift:0.2 ());
  Alcotest.(check bool) "no cells holds" false (go ~cells:0 ());
  Alcotest.(check bool) "too few votes holds" false (go ~votes:5 ~votes_at_fit:0 ());
  Alcotest.(check bool) "too few new votes holds" false (go ~votes_at_fit:18 ());
  Alcotest.(check bool) "nan drift fires when gates pass" true
    (go ~drift:Float.nan ());
  Alcotest.(check bool) "infinite drift fires" true (go ~drift:infinity ())

(* --- Fit warm starts --- *)

(* a synthetic observation generated by the model itself, so the fit
   landscape has a clean optimum *)
let synthetic_obs () =
  let params = Dl.Params.paper_hops in
  let distances = [| 1; 2; 3; 4; 5; 6 |] in
  let times = [| 1.; 2.; 3.; 4.; 5. |] in
  let phi =
    Dl.Initial.of_observations
      ~xs:(Array.map float_of_int distances)
      ~densities:[| 11.1; 6.1; 2.1; 1.6; 0.8; 0.4 |]
  in
  let sol = Dl.Model.solve params ~phi ~times in
  {
    Socialnet.Density.distances;
    times;
    density =
      Array.map
        (fun x ->
          Array.map
            (fun t -> Dl.Model.predict sol ~x:(float_of_int x) ~t)
            times)
        distances;
    population = Array.map (fun _ -> 100) distances;
  }

let test_fit_warm_start_fewer_evaluations () =
  let obs = synthetic_obs () in
  let config =
    { Dl.Fit.default_config with Dl.Fit.fit_times = [| 2.; 3. |] }
  in
  let cold = Dl.Fit.fit ~config (Numerics.Rng.create 7) obs in
  let warm_config = { config with Dl.Fit.starts = 1 } in
  let warm =
    Dl.Fit.fit ~config:warm_config
      ~init:(Dl.Fit.Init_params cold.Dl.Fit.params)
      (Numerics.Rng.create 7) obs
  in
  Alcotest.(check bool) "warm uses strictly fewer evaluations" true
    (warm.Dl.Fit.evaluations < cold.Dl.Fit.evaluations);
  (* Nelder--Mead never loses its best vertex, and the warm simplex
     starts at the cold optimum *)
  Alcotest.(check bool) "warm training error no worse" true
    (warm.Dl.Fit.training_error <= cold.Dl.Fit.training_error +. 1e-12)

let test_fit_warm_metric () =
  let obs = synthetic_obs () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let m = Obs.Metrics.counter "fit.warm_starts" in
  let before = Obs.Metrics.counter_value m in
  let config =
    {
      Dl.Fit.default_config with
      Dl.Fit.fit_times = [| 2. |];
      starts = 1;
      solver_nx = 21;
      solver_dt = 0.1;
    }
  in
  let cold = Dl.Fit.fit ~config (Numerics.Rng.create 7) obs in
  Alcotest.(check int) "cold fit does not count" 0
    (Obs.Metrics.counter_value m - before);
  ignore
    (Dl.Fit.fit ~config
       ~init:(Dl.Fit.Init_params cold.Dl.Fit.params)
       (Numerics.Rng.create 7) obs);
  Alcotest.(check int) "warm fit counts" 1
    (Obs.Metrics.counter_value m - before)

(* --- store format v3 --- *)

let v3_record () =
  {
    Store.Format.id = "r-live";
    story = "replay-7";
    source = "live";
    model = "dl";
    created_ns = 42;
    params =
      Dl.Params.make ~d:0.01 ~k:25.
        ~r:(Dl.Growth.Exp_decay { a = 1.4; b = 1.5; c = 0.25 })
        ~l:1. ~big_l:6.;
    phi_xs = [| 1.; 2.; 3. |];
    phi_densities = [| 2.0; 1.2; 0.7 |];
    phi_construction = `Pchip;
    scheme = Dl.Model.Strang;
    nx = 41;
    dt = 0.05;
    reference_stepper = false;
    fit_times = [| 2.; 3. |];
    training_error = 0.25;
    evaluations = 321;
    starts = 2;
    trace_id = "abcdef0123456789abcdef0123456789";
    obs_cursor = 4.53;
  }

let test_store_v3_roundtrip () =
  let r = v3_record () in
  match Store.Format.decode (Store.Format.encode r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check bool) "bit-equal roundtrip" true (Store.Format.equal r r');
    Alcotest.(check string) "trace id survives" r.Store.Format.trace_id
      r'.Store.Format.trace_id;
    Alcotest.(check (float 0.)) "cursor survives" r.Store.Format.obs_cursor
      r'.Store.Format.obs_cursor

let test_store_v2_compat () =
  (* a v2 payload is a v3 payload minus the two trailing fields, with
     the version byte rewound — decode must default them *)
  let r = { (v3_record ()) with Store.Format.trace_id = ""; obs_cursor = 0. } in
  let v3 = Store.Format.encode r in
  (* trailing bytes: u32 len=0 (empty trace_id) + 8-byte float *)
  let v2 =
    "\x02" ^ String.sub v3 1 (String.length v3 - 1 - 12)
  in
  match Store.Format.decode v2 with
  | Error e -> Alcotest.failf "v2 payload rejected: %s" e
  | Ok r' ->
    Alcotest.(check bool) "decodes equal to v3 defaults" true
      (Store.Format.equal r r');
    Alcotest.(check string) "empty trace id" "" r'.Store.Format.trace_id;
    Alcotest.(check (float 0.)) "zero cursor" 0. r'.Store.Format.obs_cursor

let test_record_of_fit_carries_live_fields () =
  let obs = synthetic_obs () in
  let config =
    {
      Dl.Fit.default_config with
      Dl.Fit.fit_times = [| 2. |];
      starts = 1;
      solver_nx = 21;
      solver_dt = 0.1;
    }
  in
  let result = Dl.Fit.fit ~config (Numerics.Rng.create 7) obs in
  let phi =
    Dl.Initial.of_observations
      ~xs:(Array.map float_of_int obs.Socialnet.Density.distances)
      ~densities:
        (Array.map (fun row -> row.(0)) obs.Socialnet.Density.density)
  in
  let r =
    Store.record_of_fit ~story:"s" ~source:"live" ~trace_id:"deadbeef"
      ~obs_cursor:3.25 ~phi ~config ~result ()
  in
  Alcotest.(check string) "trace id" "deadbeef" r.Store.Format.trace_id;
  Alcotest.(check (float 0.)) "cursor" 3.25 r.Store.Format.obs_cursor;
  let bare = Store.record_of_fit ~phi ~config ~result () in
  Alcotest.(check string) "defaults empty" "" bare.Store.Format.trace_id;
  Alcotest.(check (float 0.)) "defaults zero" 0. bare.Store.Format.obs_cursor

(* --- end-to-end: /observe -> drift -> warm refit daemon --- *)

let with_server ~config f =
  let server = Serve.Server.create ~config () in
  let th = Thread.create Serve.Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join th;
      Obs.set_enabled false)
    (fun () -> f (Serve.Server.port server))

let ok = function
  | Ok (r : Serve.Client.response) -> r
  | Error msg -> Alcotest.failf "request failed: %s" msg

let json_of (r : Serve.Client.response) =
  match J.parse r.Serve.Client.body with
  | Ok v -> v
  | Error e -> Alcotest.failf "bad JSON body %S: %s" r.Serve.Client.body e

let member_exn name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" name

(* poll /live until no refit is in flight for [story] *)
let wait_refit_idle conn story =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "refit did not finish within 60s";
    let r = ok (Serve.Client.request_on conn "GET" ("/live?story=" ^ story)) in
    let stories =
      Option.get (J.to_list (member_exn "stories" (json_of r)))
    in
    match stories with
    | [ s ] -> (
      match member_exn "refit_inflight" s with
      | J.Bool false -> s
      | _ ->
        Thread.delay 0.02;
        go ())
    | _ -> Alcotest.failf "expected one story, got %d" (List.length stories)
  in
  go ()

let vote_json (e : Socialnet.Replay.event) =
  J.Object
    [
      ("voter", J.Number (float_of_int e.Socialnet.Replay.voter));
      ("time", J.Number e.Socialnet.Replay.time);
      ("distance", J.Number (float_of_int e.Socialnet.Replay.distance));
    ]

let num_array a = J.List (List.map (fun v -> J.Number v) (Array.to_list a))

let test_e2e_observe_refit () =
  with_dir @@ fun dir ->
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.port = 0;
      jobs = 2;
      store_dir = Some dir;
    }
  in
  let story = "e2e" in
  let stream = Socialnet.Replay.simulate ~seed:7 () in
  let events = stream.Socialnet.Replay.events in
  with_server ~config @@ fun port ->
  let conn =
    match Serve.Client.connect ~timeout:30. ~port () with
    | Ok c -> c
    | Error msg -> Alcotest.failf "connect: %s" msg
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close conn) @@ fun () ->
  let n = Array.length events in
  let batch = 40 in
  let i = ref 0 in
  while !i < n do
    let j = ref (min n (!i + batch)) in
    (* never split equal event times across a batch boundary, so a
       refit's obs_cursor identifies the folded vote set exactly *)
    while
      !j < n
      && events.(!j).Socialnet.Replay.time
         = events.(!j - 1).Socialnet.Replay.time
    do
      incr j
    done;
    let votes =
      Array.to_list (Array.sub events !i (!j - !i)) |> List.map vote_json
    in
    let fields =
      [ ("story", J.String story); ("votes", J.List votes) ]
      @
      if !i = 0 then
        [
          ("times", num_array stream.Socialnet.Replay.times);
          ( "population",
            num_array
              (Array.map float_of_int stream.Socialnet.Replay.population) );
          ( "max_distance",
            J.Number (float_of_int stream.Socialnet.Replay.max_distance) );
        ]
      else []
    in
    let body = J.to_string (J.Object fields) in
    let r = ok (Serve.Client.request_on conn ~body "POST" "/observe") in
    Alcotest.(check int) "observe 200" 200 r.Serve.Client.status;
    (* serialize daemon fits so each refit's input is a batch boundary *)
    ignore (wait_refit_idle conn story);
    i := !j
  done;
  let status = wait_refit_idle conn story in
  let field name = member_exn name status in
  let fits = Option.get (J.to_int (field "fits")) in
  let refits = Option.get (J.to_int (field "refits")) in
  Alcotest.(check bool) "daemon fitted at least twice" true (fits >= 2);
  Alcotest.(check bool) "at least one drift-triggered warm refit" true
    (refits >= 1);
  let serving =
    match field "fit" with
    | J.String id -> id
    | _ -> Alcotest.fail "no serving fit"
  in
  (* the serving fit is the daemon's latest generation *)
  let gen =
    match String.rindex_opt serving 'g' with
    | Some k ->
      int_of_string
        (String.sub serving (k + 1) (String.length serving - k - 1))
    | None -> Alcotest.failf "unexpected daemon fit id %S" serving
  in
  Alcotest.(check bool) "warm generation" true (gen >= 2);
  let records, _ = Store.load dir in
  let find id =
    match
      List.find_opt (fun r -> r.Store.Format.id = id) records
    with
    | Some r -> r
    | None -> Alcotest.failf "record %S not in store" id
  in
  let warm_rec = find serving in
  let prev_rec = find (Printf.sprintf "live-%s-g%d" story (gen - 1)) in
  Alcotest.(check string) "daemon records carry source live" "live"
    warm_rec.Store.Format.source;
  Alcotest.(check bool) "cursor persisted" true
    (warm_rec.Store.Format.obs_cursor > 0.);
  Alcotest.(check bool) "daemon trace id persisted" true
    (warm_rec.Store.Format.trace_id <> "");
  (* --- offline replica of the daemon's warm refit --- *)
  let cursor = warm_rec.Store.Format.obs_cursor in
  let profile =
    Profile.create ~lateness:config.Serve.Server.live_lateness
      ~max_distance:stream.Socialnet.Replay.max_distance
      ~times:stream.Socialnet.Replay.times
      ~population:stream.Socialnet.Replay.population ()
  in
  Array.iter
    (fun (e : Socialnet.Replay.event) ->
      if e.Socialnet.Replay.time <= cursor then
        ignore
          (Profile.add profile ~distance:e.Socialnet.Replay.distance
             ~time:e.Socialnet.Replay.time))
    events;
  let observed = Profile.observed_times profile in
  let full = Profile.density profile in
  let m = Array.length observed in
  let obs =
    {
      full with
      Socialnet.Density.times = observed;
      density =
        Array.map (fun row -> Array.sub row 0 m) full.Socialnet.Density.density;
    }
  in
  let fit_times =
    Array.of_list (List.filter (fun tm -> tm > 1.) (Array.to_list observed))
  in
  let fit_config =
    { Dl.Fit.default_config with Dl.Fit.fit_times; starts = 1 }
  in
  let offline =
    Dl.Fit.fit ~config:fit_config
      ~init:(Dl.Fit.Init_params prev_rec.Store.Format.params)
      (Numerics.Rng.create config.Serve.Server.live_seed)
      obs
  in
  Alcotest.(check int) "same evaluation count as the daemon's refit"
    warm_rec.Store.Format.evaluations offline.Dl.Fit.evaluations;
  (* predictions agree within 1e-6 relative error on the fitting cells *)
  let phi = Store.Format.phi warm_rec in
  let sol_daemon =
    Dl.Model.solve warm_rec.Store.Format.params ~phi ~times:fit_times
  in
  let sol_offline =
    Dl.Model.solve offline.Dl.Fit.params ~phi ~times:fit_times
  in
  Array.iter
    (fun x ->
      Array.iter
        (fun tq ->
          let xf = float_of_int x in
          let a = Dl.Model.predict sol_daemon ~x:xf ~t:tq in
          let b = Dl.Model.predict sol_offline ~x:xf ~t:tq in
          let denom = Float.max 1e-9 (Float.abs a) in
          Alcotest.(check bool)
            (Printf.sprintf "cell (%d, %g) within 1e-6" x tq)
            true
            (Float.abs (a -. b) /. denom <= 1e-6))
        fit_times)
    obs.Socialnet.Density.distances;
  (* the warm refit is strictly cheaper than an equivalent cold fit *)
  let cold =
    Dl.Fit.fit
      ~config:{ Dl.Fit.default_config with Dl.Fit.fit_times }
      (Numerics.Rng.create config.Serve.Server.live_seed)
      obs
  in
  Alcotest.(check bool) "warm refit beats cold on evaluations" true
    (warm_rec.Store.Format.evaluations < cold.Dl.Fit.evaluations)

let test_observe_validation () =
  let config =
    { Serve.Server.default_config with Serve.Server.port = 0; jobs = 1 }
  in
  with_server ~config @@ fun port ->
  let post body = ok (Serve.Client.request ~port ~body "POST" "/observe") in
  (* unknown story without grid fields *)
  let r = post {|{"story":"x","votes":[]}|} in
  Alcotest.(check int) "unknown story needs grid" 400 r.Serve.Client.status;
  (* malformed vote *)
  let r =
    post
      {|{"story":"x","votes":[{"voter":1}],"times":[1,2],"population":[10]}|}
  in
  Alcotest.(check int) "vote without time" 400 r.Serve.Client.status;
  (* distance-less vote without graph context *)
  let r =
    post
      {|{"story":"x","votes":[{"voter":1,"time":0.5}],"times":[1,2],"population":[10]}|}
  in
  Alcotest.(check int) "no distance, no graph" 400 r.Serve.Client.status;
  (* a valid stream works and reports drop accounting *)
  let r =
    post
      {|{"story":"y","votes":[{"voter":1,"time":0.5,"distance":1},
                              {"voter":2,"time":1.5,"distance":9},
                              {"voter":3,"time":9.0,"distance":1}],
         "times":[1,2],"population":[10],"lateness":1}|}
  in
  Alcotest.(check int) "valid stream" 200 r.Serve.Client.status;
  let j = json_of r in
  Alcotest.(check (option int)) "ingested" (Some 1)
    (J.to_int (member_exn "ingested" j));
  Alcotest.(check (option int)) "out of range" (Some 1)
    (J.to_int (member_exn "out_of_range" j));
  Alcotest.(check (option int)) "beyond horizon" (Some 1)
    (J.to_int (member_exn "beyond_horizon" j));
  (* the late vote, after the watermark moved to 9 *)
  let r =
    post {|{"story":"y","votes":[{"voter":4,"time":0.6,"distance":1}]}|}
  in
  Alcotest.(check (option int)) "late vote dropped" (Some 1)
    (J.to_int (member_exn "late" (json_of r)))

(* An "initiator" outside the graph is refused with a 400 naming the
   range, and the server keeps serving /observe and /live.  Every
   request has a client timeout and the server thread is joined only
   once it has drained, so a wedged server fails the test instead of
   hanging it. *)
let test_observe_initiator_outside_graph () =
  let graph =
    let follows = Osn_graph.Digraph.of_edges 4 [ (1, 0); (2, 1); (3, 2) ] in
    Socialnet.Dataset.make ~follows ~influence:(Osn_graph.Digraph.reverse follows)
      ~stories:[||]
  in
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.port = 0;
      jobs = 2;
      graph = Some graph;
    }
  in
  let server = Serve.Server.create ~config () in
  let stopped = Atomic.make false in
  let th =
    Thread.create (fun () -> Serve.Server.run server; Atomic.set stopped true) ()
  in
  let drained () =
    Serve.Server.stop server;
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    Atomic.get stopped
  in
  Fun.protect
    ~finally:(fun () ->
      if drained () then Thread.join th;
      Obs.set_enabled false)
  @@ fun () ->
  let port = Serve.Server.port server in
  let call ?body meth target =
    match Serve.Client.request ~timeout:4. ~port ?body meth target with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s %s: %s" meth target e
  in
  let first initiator =
    Printf.sprintf
      {|{"story":"s","initiator":%d,"votes":[{"voter":1,"time":0.5}],
         "times":[1,2],"population":[10,10,10]}|}
      initiator
  in
  let r = call ~body:(first (-5)) "POST" "/observe" in
  Alcotest.(check int) "initiator -5" 400 r.Serve.Client.status;
  Alcotest.(check bool) "names the range" true
    (Test_serve.contains ~needle:"0..3" r.Serve.Client.body);
  Alcotest.(check int) "initiator 4" 400
    (call ~body:(first 4) "POST" "/observe").Serve.Client.status;
  Alcotest.(check int) "live after the bad batches" 200
    (call "GET" "/live").Serve.Client.status;
  Alcotest.(check int) "a valid first batch" 200
    (call ~body:(first 0) "POST" "/observe").Serve.Client.status;
  Alcotest.(check int) "live after the valid batch" 200
    (call "GET" "/live").Serve.Client.status;
  Alcotest.(check bool) "the server drains" true (drained ())

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_profile_matches_batch_shuffled;
      prop_profile_matches_batch_ordered;
      prop_profile_matches_batch_jittered;
    ]
  @ [
      ("profile late drop accounting", `Quick, test_profile_late_drop);
      ("profile matches replay batch reference", `Quick, test_profile_replay_stream);
      ("profile cursor resume", `Quick, test_profile_cursor_resume);
      ("drift relative error", `Quick, test_drift_relative_error);
      ("drift refit gates", `Quick, test_drift_should_refit);
      ("warm start: fewer evaluations, no worse error", `Slow,
        test_fit_warm_start_fewer_evaluations);
      ("warm start: fit.warm_starts metric", `Quick, test_fit_warm_metric);
      ("store v3 roundtrip", `Quick, test_store_v3_roundtrip);
      ("store v2 payload compat", `Quick, test_store_v2_compat);
      ("record_of_fit carries trace id and cursor", `Quick,
        test_record_of_fit_carries_live_fields);
      ("e2e: observe -> drift -> warm refit daemon", `Slow, test_e2e_observe_refit);
      ("observe validation and drop accounting", `Quick, test_observe_validation);
      ("observe: initiator outside the graph", `Quick,
        test_observe_initiator_outside_graph);
    ]
