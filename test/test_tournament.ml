(* Tests for the model zoo: the Predictor registry, the linear
   diffusive model against its closed form, tournament determinism
   across pool sizes, and the serve `model` field round-tripping
   through the persistent store. *)

let builtin_names =
  [
    "dl"; "dl-linear"; "epidemic"; "gompertz"; "linear-trend"; "logistic";
    "network"; "persistence";
  ]

(* --- registry --- *)

let test_registry_complete () =
  Alcotest.(check (list string))
    "names () lists every built-in, sorted" builtin_names
    (Dl.Predictor.names ());
  List.iter
    (fun n ->
      match Dl.Predictor.find n with
      | Some p -> Alcotest.(check string) "find returns the entry" n
                    p.Dl.Predictor.name
      | None -> Alcotest.failf "built-in %S not registered" n)
    builtin_names;
  (* registration order keeps built-ins first and complete *)
  Alcotest.(check (list string))
    "all () covers the same set" builtin_names
    (List.sort compare
       (List.map (fun (p : Dl.Predictor.t) -> p.Dl.Predictor.name)
          (Dl.Predictor.all ())));
  List.iter
    (fun (p : Dl.Predictor.t) ->
      Alcotest.(check bool)
        (p.Dl.Predictor.name ^ " has a description") true
        (String.length p.Dl.Predictor.description > 0))
    (Dl.Predictor.all ())

let test_registry_errors () =
  let obs = List.assoc "synth-1" (Dl.Tournament.synthetic_stories ~n:1 ()) in
  (match Dl.Predictor.fit "no-such-model" (Dl.Predictor.spec obs) with
  | _ -> Alcotest.fail "unknown model did not raise"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "Predictor.fit: prefix" true
      (String.starts_with ~prefix:"Predictor.fit:" msg);
    Alcotest.(check bool) "message lists registered names" true
      (List.for_all
         (fun n ->
           let rec contains i =
             i + String.length n <= String.length msg
             && (String.sub msg i (String.length n) = n || contains (i + 1))
           in
           contains 0)
         builtin_names));
  (* the network model needs graph context the density obs cannot give *)
  (match Dl.Predictor.fit "network" (Dl.Predictor.spec obs) with
  | _ -> Alcotest.fail "network without graph did not raise"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "Predictor.fit: prefix" true
      (String.starts_with ~prefix:"Predictor.fit:" msg));
  match Dl.Tournament.run ~models:[ "nope" ] [ ("s", obs) ] with
  | _ -> Alcotest.fail "tournament with unknown model did not raise"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "Tournament.run: prefix" true
      (String.starts_with ~prefix:"Tournament.run:" msg)

let test_default_models () =
  Alcotest.(check bool) "network excluded" false
    (List.mem "network" Dl.Tournament.default_models);
  Alcotest.(check bool) "at least 4 models" true
    (List.length Dl.Tournament.default_models >= 4);
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " registered") true
        (Dl.Predictor.find m <> None))
    Dl.Tournament.default_models

(* --- error-message form for the baseline/epidemic validators --- *)

let test_invalid_arg_form () =
  let bad_times =
    {
      Socialnet.Density.distances = [| 1; 2 |];
      times = [| 2.; 3. |];
      density = [| [| 1.; 2. |]; [| 1.; 2. |] |];
      population = [| 10; 10 |];
    }
  in
  (match Dl.Baselines.persistence bad_times with
  | (_ : Dl.Baselines.predictor) -> Alcotest.fail "baseline accepted t0 <> 1"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "Baselines.<fn>: form" true
      (String.starts_with ~prefix:"Baselines.persistence:" msg));
  match
    Dl.Epidemic.validate
      { Dl.Epidemic.beta_local = -1.; beta_cross = 0.1; mixing_decay = 0.5 }
  with
  | () -> Alcotest.fail "epidemic accepted a negative rate"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "Epidemic.<fn>: form" true
      (String.starts_with ~prefix:"Epidemic." msg)

(* --- linear diffusive model vs its closed form --- *)

(* With phi(x) = a0 + a1 cos(pi (x - l) / (L - l)) and constant growth
   r, the linear PDE separates exactly:
     I(x, t) = e^{r (t-1)} (a0 + a1 e^{-d lambda (t-1)} cos(...)),
   lambda = (pi / (L - l))^2 — the cosine is a Neumann eigenfunction. *)
let test_linear_model_closed_form () =
  let l = 1. and big_l = 5. in
  let d = 0.05 and r = 0.3 and a0 = 2.0 and a1 = 0.5 in
  let lambda = (Float.pi /. (big_l -. l)) ** 2. in
  let mode x = cos (Float.pi *. (x -. l) /. (big_l -. l)) in
  let exact ~x ~t =
    exp (r *. (t -. 1.))
    *. (a0 +. (a1 *. exp (-.d *. lambda *. (t -. 1.)) *. mode x))
  in
  let n_knots = 33 in
  let xs =
    Array.init n_knots (fun i ->
        l +. ((big_l -. l) *. float_of_int i /. float_of_int (n_knots - 1)))
  in
  let phi =
    Dl.Initial.of_observations ~xs
      ~densities:(Array.map (fun x -> a0 +. (a1 *. mode x)) xs)
  in
  let params =
    Dl.Linear_model.make ~d ~r:(Dl.Growth.Constant r) ~l ~big_l
  in
  List.iter
    (fun scheme ->
      let sol =
        Dl.Linear_model.solve ~scheme ~nx:201 ~dt:0.005 params ~phi
          ~times:[| 1.; 1.5; 2.; 3. |]
      in
      let predict = Dl.Linear_model.predictor sol in
      List.iter
        (fun x ->
          List.iter
            (fun t ->
              let got = predict ~x ~t in
              let want = exact ~x ~t in
              Alcotest.(check bool)
                (Printf.sprintf "I(%g, %g) within 1%% of closed form" x t)
                true
                (Float.abs (got -. want) /. want < 0.01))
            [ 1.5; 2.; 3. ])
        [ 1.; 2.3; 3.7; 5. ])
    [ Dl.Linear_model.Strang; Dl.Linear_model.Crank_nicolson ]

(* --- tournament determinism across pool sizes --- *)

let accuracy_fields lb =
  Array.map
    (fun (e : Dl.Tournament.entry) ->
      ( e.Dl.Tournament.e_model,
        e.Dl.Tournament.e_ok,
        e.Dl.Tournament.e_mean_rel_err,
        e.Dl.Tournament.e_training_error,
        Array.to_list e.Dl.Tournament.e_per_story,
        e.Dl.Tournament.e_evaluations ))
    lb.Dl.Tournament.lb_entries

let test_parallel_determinism () =
  let stories = Dl.Tournament.synthetic_stories ~n:3 ~seed:11 () in
  let models = [ "logistic"; "gompertz"; "linear-trend"; "persistence" ] in
  let seq =
    Dl.Tournament.run ~pool:Parallel.Pool.sequential ~models ~seed:5 stories
  in
  let par =
    Dl.Tournament.run
      ~pool:(Parallel.Pool.create ~jobs:4 ())
      ~models ~seed:5 stories
  in
  (* every accuracy field bit-identical; only wall-clock fields may vary *)
  Alcotest.(check bool) "accuracy fields identical across pool sizes" true
    (accuracy_fields seq = accuracy_fields par);
  Alcotest.(check int) "all models entered" (List.length models)
    (Array.length seq.Dl.Tournament.lb_entries);
  Array.iter
    (fun (e : Dl.Tournament.entry) ->
      Alcotest.(check bool) (e.Dl.Tournament.e_model ^ " fitted") true
        e.Dl.Tournament.e_ok)
    seq.Dl.Tournament.lb_entries;
  (* ranking is ascending in held-out error for successful entries *)
  let errs =
    Array.to_list
      (Array.map
         (fun (e : Dl.Tournament.entry) -> e.Dl.Tournament.e_mean_rel_err)
         seq.Dl.Tournament.lb_entries)
  in
  Alcotest.(check bool) "sorted ascending" true
    (List.sort compare errs = errs)

let test_leaderboard_json () =
  let stories = Dl.Tournament.synthetic_stories ~n:2 ~seed:3 () in
  let lb =
    Dl.Tournament.run ~models:[ "linear-trend"; "persistence" ] stories
  in
  let doc = Dl.Tournament.json_string lb in
  match Serve.Tiny_json.parse doc with
  | Error e -> Alcotest.failf "leaderboard JSON does not parse: %s" e
  | Ok j ->
    let module J = Serve.Tiny_json in
    Alcotest.(check (option string)) "schema" (Some Dl.Tournament.schema_version)
      (Option.bind (J.member "schema" j) J.to_string_opt);
    let entries =
      Option.bind (J.member "leaderboard" j) J.to_list |> Option.get
    in
    Alcotest.(check int) "one entry per model" 2 (List.length entries);
    List.iter
      (fun e ->
        List.iter
          (fun field ->
            Alcotest.(check bool) (field ^ " present") true
              (J.member field e <> None))
          [
            "model"; "ok"; "error"; "mean_rel_err"; "training_error";
            "per_story"; "fit_ms"; "predict_ms"; "evaluations";
          ])
      entries

(* --- serve `model` field, round-tripped through the store --- *)

let linear_fit_body =
  {|{"distances":[1,2,3,4],"times":[1,2,3,4,5],
     "density":[[2.0,3.0,4.0,4.8,5.4],[1.2,1.9,2.7,3.4,4.0],
                [0.7,1.1,1.6,2.1,2.5],[0.4,0.6,0.9,1.2,1.5]],
     "starts":1,"seed":3,"model":"dl-linear"}|}

let ok = function
  | Ok (r : Serve.Client.response) -> r
  | Error msg -> Alcotest.failf "request failed: %s" msg

let json_of (r : Serve.Client.response) =
  match Serve.Tiny_json.parse r.Serve.Client.body with
  | Ok v -> v
  | Error e -> Alcotest.failf "bad JSON body %S: %s" r.Serve.Client.body e

let with_store_server dir f =
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.port = 0;
      store_dir = Some dir;
    }
  in
  let server = Serve.Server.create ~config () in
  let th = Thread.create Serve.Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join th;
      Obs.set_enabled false)
    (fun () -> f (Serve.Server.port server))

let test_serve_model_roundtrip () =
  let module J = Serve.Tiny_json in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlosn-test-tournament-%d" (Unix.getpid ()))
  in
  let rmrf () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  rmrf ();
  Fun.protect ~finally:rmrf @@ fun () ->
  (* fit a linear model and let the server persist it *)
  with_store_server dir (fun port ->
      let r = ok (Serve.Client.request ~port ~body:linear_fit_body "POST" "/fit") in
      Alcotest.(check int) "fit status" 200 r.Serve.Client.status;
      Alcotest.(check (option string)) "response model" (Some "dl-linear")
        (Option.bind (J.member "model" (json_of r)) J.to_string_opt);
      (* unknown model name: structured 400, not a 500 *)
      let bad =
        ok
          (Serve.Client.request ~port
             ~body:{|{"distances":[1,2],"times":[1,2],
                      "density":[[1,2],[1,2]],"model":"nope"}|}
             "POST" "/fit")
      in
      Alcotest.(check int) "unknown model is a 400" 400
        bad.Serve.Client.status;
      let err =
        Option.bind (J.member "error" (json_of bad)) J.to_string_opt
        |> Option.value ~default:""
      in
      Alcotest.(check bool) "error lists registered models" true
        (let needle = "dl-linear" in
         let rec contains i =
           i + String.length needle <= String.length err
           && (String.sub err i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0));
  (* the store record carries the model name *)
  let records, _ = Store.load dir in
  (match records with
  | [ r ] ->
    Alcotest.(check string) "stored model" "dl-linear" r.Store.Format.model
  | rs -> Alcotest.failf "expected 1 stored record, got %d" (List.length rs));
  (* a restarted server warm-starts the linear fit and serves it *)
  with_store_server dir (fun port ->
      let r = ok (Serve.Client.request ~port "GET" "/predict?x=2&t=4") in
      Alcotest.(check int) "warm predict status" 200 r.Serve.Client.status;
      let d =
        Option.bind (J.member "density" (json_of r)) J.to_float |> Option.get
      in
      Alcotest.(check bool) "warm density sane" true
        (Float.is_finite d && d >= 0.))

(* Without "starts", a served linear fit keeps Linear_model's own
   default restarts, not the dl fit's default polishes. *)
let test_serve_linear_default_starts () =
  let module J = Serve.Tiny_json in
  let server =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with Serve.Server.port = 0 } ()
  in
  let th = Thread.create Serve.Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join th)
  @@ fun () ->
  let r =
    ok
      (Serve.Client.request ~port:(Serve.Server.port server)
         ~body:{|{"distances":[1,2,3,4],"times":[1,2,3,4,5],
                  "density":[[2.0,3.0,4.0,4.8,5.4],[1.2,1.9,2.7,3.4,4.0],
                             [0.7,1.1,1.6,2.1,2.5],[0.4,0.6,0.9,1.2,1.5]],
                  "seed":3,"model":"dl-linear"}|}
         "POST" "/fit")
  in
  let offline =
    Dl.Linear_model.fit
      ~config:
        { Dl.Linear_model.default_fit_config with
          Dl.Linear_model.fit_times = [| 2.; 3.; 4.; 5. |] }
      (Numerics.Rng.create 3)
      {
        Socialnet.Density.distances = [| 1; 2; 3; 4 |];
        times = [| 1.; 2.; 3.; 4.; 5. |];
        density =
          [| [| 2.0; 3.0; 4.0; 4.8; 5.4 |]; [| 1.2; 1.9; 2.7; 3.4; 4.0 |];
             [| 0.7; 1.1; 1.6; 2.1; 2.5 |]; [| 0.4; 0.6; 0.9; 1.2; 1.5 |] |];
        population = Array.make 4 100;
      }
  in
  Alcotest.(check int) "fit status" 200 r.Serve.Client.status;
  Alcotest.(check (option int)) "the offline default fit's evaluations"
    (Some offline.Dl.Linear_model.evaluations)
    (Option.bind (J.member "evaluations" (json_of r)) J.to_int)

let suite =
  [
    Alcotest.test_case "registry lists every built-in" `Quick
      test_registry_complete;
    Alcotest.test_case "registry errors name the caller" `Quick
      test_registry_errors;
    Alcotest.test_case "default tournament models" `Quick test_default_models;
    Alcotest.test_case "validator messages use Module.fn form" `Quick
      test_invalid_arg_form;
    Alcotest.test_case "linear model matches its closed form" `Slow
      test_linear_model_closed_form;
    Alcotest.test_case "leaderboard identical across pool sizes" `Slow
      test_parallel_determinism;
    Alcotest.test_case "leaderboard JSON shape" `Slow test_leaderboard_json;
    Alcotest.test_case "serve model field round-trips the store" `Slow
      test_serve_model_roundtrip;
    Alcotest.test_case "serve dl-linear default starts" `Quick
      test_serve_linear_default_starts;
  ]
