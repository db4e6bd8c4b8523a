(* Tests for the persistent model store: the binary record codec and
   CRC framing, WAL crash recovery (torn tails, bit rot), snapshot
   compaction, bit-exact fit round-trips through the fit hook, and the
   serving layer's warm restart over a store directory. *)

module F = Store.Format
module J = Serve.Tiny_json

(* --- scratch directories --- *)

let tmp_counter = ref 0

let tmp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlosn-test-store-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- fixtures --- *)

let sample_record ?(id = "r1") ?(training_error = 0.25) ?(model = "dl") () =
  {
    F.id;
    story = "story-7";
    source = "test";
    model;
    created_ns = 1_234_567_890;
    params =
      Dl.Params.make ~d:0.01 ~k:25.
        ~r:(Dl.Growth.Exp_decay { a = 1.4; b = 1.5; c = 0.25 })
        ~l:1. ~big_l:6.;
    phi_xs = [| 1.; 2.; 3.; 4. |];
    phi_densities = [| 2.0; 1.2; 0.7; 0.4 |];
    phi_construction = `Pchip;
    scheme = Dl.Model.Strang;
    nx = 41;
    dt = 0.05;
    reference_stepper = false;
    fit_times = [| 2.; 3. |];
    training_error;
    evaluations = 321;
    starts = 2;
    trace_id = "";
    obs_cursor = 0.;
  }

let small_obs () =
  {
    Socialnet.Density.distances = [| 1; 2; 3; 4 |];
    times = [| 1.; 2.; 3.; 4.; 5. |];
    density =
      [|
        [| 2.0; 3.0; 4.0; 4.8; 5.4 |];
        [| 1.2; 1.9; 2.7; 3.4; 4.0 |];
        [| 0.7; 1.1; 1.6; 2.1; 2.5 |];
        [| 0.4; 0.6; 0.9; 1.2; 1.5 |];
      |];
    population = [| 100; 100; 100; 100 |];
  }

let bits = Int64.bits_of_float

let check_bits name a b =
  Alcotest.(check int64) name (bits a) (bits b)

(* --- codec --- *)

let test_crc32_vector () =
  (* the standard IEEE 802.3 check value for "123456789" *)
  Alcotest.(check int) "crc32 check vector" 0xCBF43926 (F.crc32 "123456789");
  (* incremental = one-shot *)
  Alcotest.(check int) "incremental crc"
    (F.crc32 "123456789")
    (F.crc32 ~crc:(F.crc32 "12345") "6789")

let test_encode_decode_roundtrip () =
  let weird =
    {
      (sample_record ()) with
      F.training_error = -0.0;
      phi_densities = [| 1e-300; Float.max_float; 0.1 +. 0.2 |];
      phi_xs = [| 0.1; 0.2; 0.3 |];
      params =
        Dl.Params.make ~d:1e-17 ~k:1.0000000000000002
          ~r:(Dl.Growth.Constant 0.30000000000000004)
          ~l:0. ~big_l:5.;
    }
  in
  List.iter
    (fun r ->
      match F.decode (F.encode r) with
      | Error e -> Alcotest.failf "decode failed: %s" e
      | Ok r' ->
        Alcotest.(check bool) "bit-exact round-trip" true (F.equal r r'))
    [ sample_record (); weird ]

(* The exact bytes [encode] produced for [sample_record ()] while the
   codec was still at payload version 1 (no model field), captured
   before the v2 bump.  Decoding must keep working forever and default
   the model name to "dl". *)
let v1_sample_hex =
  "010200000072310700000073746f72792d370400000074657374d2029649000000007b14ae\
   47e17a843f000000000000394001666666666666f63f000000000000f83f000000000000d0\
   3f000000000000f03f000000000000184004000000000000000000f03f0000000000000040\
   00000000000008400000000000001040040000000000000000000040333333333333f33f66\
   6666666666e63f9a9999999999d93f0102290000009a9999999999a93f0002000000000000\
   00000000400000000000000840000000000000d03f4101000002000000"

let of_hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let test_decode_v1_record () =
  match F.decode (of_hex v1_sample_hex) with
  | Error e -> Alcotest.failf "v1 payload must decode: %s" e
  | Ok r ->
    Alcotest.(check string) "v1 model defaults to dl" "dl" r.F.model;
    Alcotest.(check bool) "v1 fields survive" true
      (F.equal r (sample_record ()))

let test_decode_rejects_garbage () =
  let enc = F.encode (sample_record ()) in
  (match F.decode (enc ^ "x") with
  | Ok _ -> Alcotest.fail "trailing garbage must not decode"
  | Error _ -> ());
  match F.decode (String.sub enc 0 (String.length enc - 3)) with
  | Ok _ -> Alcotest.fail "truncated payload must not decode"
  | Error _ -> ()

let test_solver_signature_pinned () =
  (* fit ids already saved in a store hash this string: it must not
     drift, or re-posted /fit bodies stop matching their records *)
  Alcotest.(check string) "strang signature"
    "scheme=strang;nx=41;dt=3fa999999999999a;ref=false"
    (F.solver_signature ~scheme:Dl.Model.Strang ~nx:41 ~dt:0.05)

let test_frame_corruption_detected () =
  let framed = F.frame (F.encode (sample_record ())) in
  (match F.read_frame framed ~pos:0 with
  | F.Frame (payload, next) ->
    Alcotest.(check int) "frame consumes everything" (String.length framed) next;
    Alcotest.(check bool) "payload decodes" true
      (Result.is_ok (F.decode payload))
  | _ -> Alcotest.fail "clean frame must read back");
  (* flip one payload byte: the CRC must catch it *)
  let b = Bytes.of_string framed in
  let mid = String.length framed - 4 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
  match F.read_frame (Bytes.to_string b) ~pos:0 with
  | F.Corrupt _ -> ()
  | F.Frame _ -> Alcotest.fail "bit flip must not read back as a frame"
  | F.End -> Alcotest.fail "bit flip must not read back as End"

(* --- store recovery --- *)

let test_empty_dir () =
  with_dir @@ fun dir ->
  let store = Store.open_ dir in
  Alcotest.(check int) "no records" 0 (Store.record_count store);
  Alcotest.(check bool) "no corruption" true
    ((Store.info store).Store.corruption = None);
  Alcotest.(check bool) "no last id" true (Store.last_id store = None);
  Store.close store;
  (* a second open over the now-initialised files is also clean *)
  let store = Store.open_ dir in
  Alcotest.(check int) "still empty" 0 (Store.record_count store);
  Store.close store

let test_append_reload () =
  with_dir @@ fun dir ->
  let store = Store.open_ dir in
  Store.append store (sample_record ~id:"a" ());
  Store.append store (sample_record ~id:"b" ~training_error:0.5 ());
  Store.close store;
  let store = Store.open_ dir in
  Alcotest.(check int) "both back" 2 (Store.record_count store);
  Alcotest.(check (option string)) "last id" (Some "b") (Store.last_id store);
  Alcotest.(check bool) "record a bit-equal" true
    (F.equal (sample_record ~id:"a" ()) (Option.get (Store.find store "a")));
  Store.close store

let test_duplicate_id_last_wins () =
  with_dir @@ fun dir ->
  let store = Store.open_ dir in
  Store.append store (sample_record ~id:"a" ~training_error:0.9 ());
  Store.append store (sample_record ~id:"b" ());
  Store.append store (sample_record ~id:"a" ~training_error:0.1 ());
  Alcotest.(check int) "two live records" 2 (Store.record_count store);
  Store.close store;
  let store = Store.open_ dir in
  Alcotest.(check int) "two after replay" 2 (Store.record_count store);
  check_bits "latest wins" 0.1
    (Option.get (Store.find store "a")).F.training_error;
  (* order keeps the first position: a, then b *)
  (match Store.records store with
  | [ ra; rb ] ->
    Alcotest.(check string) "first is a" "a" ra.F.id;
    Alcotest.(check string) "second is b" "b" rb.F.id
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
  Store.close store

let test_truncated_wal_tail () =
  with_dir @@ fun dir ->
  let store = Store.open_ dir in
  Store.append store (sample_record ~id:"a" ());
  Store.append store (sample_record ~id:"b" ());
  Store.append store (sample_record ~id:"c" ());
  Store.close store;
  (* tear the last frame, as a crash mid-write would *)
  let wal = Filename.concat dir Store.Wal.file_name in
  let size = (Unix.stat wal).Unix.st_size in
  Unix.truncate wal (size - 7);
  let store = Store.open_ dir in
  Alcotest.(check int) "valid prefix recovered" 2 (Store.record_count store);
  Alcotest.(check bool) "corruption reported" true
    ((Store.info store).Store.corruption <> None);
  Alcotest.(check bool) "dropped bytes counted" true
    ((Store.info store).Store.dropped_bytes > 0);
  (* the torn tail was truncated away: appends go to a clean log *)
  Store.append store (sample_record ~id:"d" ());
  Store.close store;
  let store = Store.open_ dir in
  Alcotest.(check int) "clean after re-append" 3 (Store.record_count store);
  Alcotest.(check bool) "no corruption now" true
    ((Store.info store).Store.corruption = None);
  Store.close store

let test_bitflip_wal_record () =
  with_dir @@ fun dir ->
  let store = Store.open_ dir in
  Store.append store (sample_record ~id:"a" ());
  Store.append store (sample_record ~id:"b" ());
  Store.close store;
  let wal = Filename.concat dir Store.Wal.file_name in
  let contents = read_file wal in
  (* flip a byte inside the last record's payload *)
  let b = Bytes.of_string contents in
  let mid = Bytes.length b - 16 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x01));
  write_file wal (Bytes.to_string b);
  let store = Store.open_ dir in
  Alcotest.(check int) "only the intact record" 1 (Store.record_count store);
  Alcotest.(check bool) "record a survives" true
    (Store.find store "a" <> None);
  Alcotest.(check bool) "corruption reported" true
    ((Store.info store).Store.corruption <> None);
  Store.close store

let test_mangled_wal_header () =
  with_dir @@ fun dir ->
  let store = Store.open_ dir in
  Store.append store (sample_record ~id:"a" ());
  Store.close store;
  let wal = Filename.concat dir Store.Wal.file_name in
  let contents = read_file wal in
  write_file wal ("XXXX" ^ String.sub contents 4 (String.length contents - 4));
  let store = Store.open_ dir in
  Alcotest.(check int) "nothing recovered" 0 (Store.record_count store);
  Alcotest.(check bool) "corruption reported" true
    ((Store.info store).Store.corruption <> None);
  (* the store still works for new appends *)
  Store.append store (sample_record ~id:"fresh" ());
  Store.close store;
  let store = Store.open_ dir in
  Alcotest.(check int) "fresh record durable" 1 (Store.record_count store);
  Store.close store

let test_gc_roundtrip () =
  with_dir @@ fun dir ->
  let store = Store.open_ dir in
  let ids = [ "a"; "b"; "c"; "d" ] in
  List.iter (fun id -> Store.append store (sample_record ~id ())) ids;
  let wal_before = Store.wal_bytes store in
  Store.gc store;
  Alcotest.(check bool) "wal shrank" true (Store.wal_bytes store < wal_before);
  Store.close store;
  let store = Store.open_ dir in
  Alcotest.(check int) "snapshot carries all" 4 (Store.record_count store);
  Alcotest.(check int) "from the snapshot" 4
    (Store.info store).Store.snapshot_records;
  Alcotest.(check int) "wal is empty" 0 (Store.info store).Store.wal_records;
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " bit-equal") true
        (F.equal (sample_record ~id ()) (Option.get (Store.find store id))))
    ids;
  Store.close store

let test_gc_retention () =
  with_dir @@ fun dir ->
  let fresh_record ~id ~age_s =
    { (sample_record ~id ()) with
      F.created_ns = Obs.now_ns () - (age_s * 1_000_000_000) }
  in
  let store = Store.open_ dir in
  List.iter
    (fun (id, age_s) -> Store.append store (fresh_record ~id ~age_s))
    [ ("old1", 5000); ("old2", 4000); ("new1", 10); ("new2", 5) ];
  (* rank-based retention: keep the two newest by append order *)
  Store.gc ~keep_last:2 store;
  Alcotest.(check int) "keep_last keeps 2" 2 (Store.record_count store);
  Alcotest.(check bool) "oldest dropped" true (Store.find store "old1" = None);
  Alcotest.(check bool) "newest kept" true (Store.find store "new2" <> None);
  Alcotest.(check (option string)) "last_id unchanged" (Some "new2")
    (Store.last_id store);
  (* age-based retention: a 1-hour cutoff drops nothing that's left *)
  Store.gc ~max_age_ns:(3600 * 1_000_000_000) store;
  Alcotest.(check int) "young records survive max_age" 2
    (Store.record_count store);
  (* retention survives reopen (snapshot rewritten) *)
  Store.close store;
  let store = Store.open_ dir in
  Alcotest.(check int) "reopen sees survivors" 2 (Store.record_count store);
  (* keep_last:0 empties the store and clears last_id *)
  Store.gc ~keep_last:0 store;
  Alcotest.(check int) "keep_last:0 empties" 0 (Store.record_count store);
  Alcotest.(check (option string)) "last_id cleared" None (Store.last_id store);
  Store.close store;
  (* the ancient fixture timestamp always falls past a real cutoff *)
  let store = Store.open_ dir in
  Store.append store (sample_record ~id:"ancient" ());
  Store.append store (fresh_record ~id:"young" ~age_s:1);
  Store.gc ~max_age_ns:(86_400 * 1_000_000_000) store;
  Alcotest.(check bool) "ancient dropped by max_age" true
    (Store.find store "ancient" = None);
  Alcotest.(check bool) "young survives max_age" true
    (Store.find store "young" <> None);
  Alcotest.(check (option string)) "last_id repointed" (Some "young")
    (Store.last_id store);
  Store.close store

let test_load_read_only () =
  with_dir @@ fun dir ->
  let store = Store.open_ dir in
  Store.append store (sample_record ~id:"a" ());
  Store.close store;
  let wal = Filename.concat dir Store.Wal.file_name in
  let size_before = (Unix.stat wal).Unix.st_size in
  Unix.truncate wal (size_before - 3);
  (* load must report the torn tail without truncating the file *)
  let records, info = Store.load dir in
  Alcotest.(check int) "tail dropped from view" 0 (List.length records);
  Alcotest.(check bool) "corruption reported" true (info.Store.corruption <> None);
  Alcotest.(check int) "file untouched" (size_before - 3)
    (Unix.stat wal).Unix.st_size

(* --- bit-exact fit round-trip through the hook --- *)

let fit_config =
  {
    Dl.Fit.default_config with
    Dl.Fit.fit_times = [| 2.; 3. |];
    starts = 1;
  }

let test_fit_hook_roundtrip () =
  with_dir @@ fun dir ->
  let obs = small_obs () in
  let store = Store.open_ ~source:"test" dir in
  Store.attach_fit_hook store ();
  let result =
    Fun.protect
      ~finally:Store.detach_fit_hook
      (fun () ->
        Dl.Fit.fit ~config:fit_config ~id:"fit-t1" (Numerics.Rng.create 3) obs)
  in
  Alcotest.(check int) "hook captured the fit" 1 (Store.record_count store);
  Store.close store;
  let store = Store.open_ dir in
  let r = Option.get (Store.find store "fit-t1") in
  let p = r.F.params and q = result.Dl.Fit.params in
  check_bits "d" q.Dl.Params.d p.Dl.Params.d;
  check_bits "k" q.Dl.Params.k p.Dl.Params.k;
  check_bits "l" q.Dl.Params.l p.Dl.Params.l;
  check_bits "L" q.Dl.Params.big_l p.Dl.Params.big_l;
  check_bits "training error" result.Dl.Fit.training_error r.F.training_error;
  Alcotest.(check int) "evaluations" result.Dl.Fit.evaluations r.F.evaluations;
  Alcotest.(check string) "solver scheme" "strang" (F.scheme_name r.F.scheme);
  (* phi rebuilt from stored knots evaluates bit-identically *)
  let phi =
    Dl.Initial.of_observations
      ~xs:(Array.map float_of_int obs.Socialnet.Density.distances)
      ~densities:(Array.map (fun row -> row.(0)) obs.Socialnet.Density.density)
  in
  let phi' = F.phi r in
  Array.iter
    (fun x ->
      check_bits
        (Printf.sprintf "phi(%g)" x)
        (Dl.Initial.eval phi x) (Dl.Initial.eval phi' x))
    [| 1.; 1.3; 2.; 2.71; 3.5; 4. |];
  Store.close store

(* --- serving over a store: warm restart, batch predict, cache keys --- *)

let fit_body =
  {|{"distances":[1,2,3,4],"times":[1,2,3,4,5],
     "density":[[2.0,3.0,4.0,4.8,5.4],[1.2,1.9,2.7,3.4,4.0],
                [0.7,1.1,1.6,2.1,2.5],[0.4,0.6,0.9,1.2,1.5]],
     "starts":1,"seed":3}|}

let with_server ~store_dir f =
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.port = 0;
      store_dir = Some store_dir;
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

let ok = function
  | Ok (r : Serve.Client.response) -> r
  | Error msg -> Alcotest.failf "request failed: %s" msg

let json_of (r : Serve.Client.response) =
  match J.parse r.Serve.Client.body with
  | Ok v -> v
  | Error e -> Alcotest.failf "bad JSON body %S: %s" r.Serve.Client.body e

let field name v =
  match J.member name v with
  | Some f -> f
  | None -> Alcotest.failf "response lacks field %S" name

let test_serve_warm_restart () =
  with_dir @@ fun dir ->
  (* first server: fit once, answer a prediction *)
  let fit_id, density =
    with_server ~store_dir:dir @@ fun port ->
    let r = ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit") in
    Alcotest.(check int) "fit status" 200 r.Serve.Client.status;
    let v = json_of r in
    Alcotest.(check bool) "fresh fit" true (field "cached" v = J.Bool false);
    let id = Option.get (J.to_string_opt (field "fit" v)) in
    let p = ok (Serve.Client.request ~port "GET" "/predict?x=2&t=3") in
    Alcotest.(check int) "predict status" 200 p.Serve.Client.status;
    (id, Option.get (J.to_float (field "density" (json_of p))))
  in
  (* the record is on disk even though the server was stopped *)
  let records, _ = Store.load dir in
  Alcotest.(check int) "one durable record" 1 (List.length records);
  (* second server over the same dir: warm cache, no refit *)
  with_server ~store_dir:dir @@ fun port ->
  let p =
    ok (Serve.Client.request ~port "GET" ("/predict?x=2&t=3&fit=" ^ fit_id))
  in
  Alcotest.(check int) "warm predict status" 200 p.Serve.Client.status;
  check_bits "same density after restart" density
    (Option.get (J.to_float (field "density" (json_of p))));
  (* the default fit survives the restart too (last_fit from the store) *)
  let p0 = ok (Serve.Client.request ~port "GET" "/predict?x=2&t=3") in
  Alcotest.(check int) "default fit after restart" 200 p0.Serve.Client.status;
  (* re-posting the identical body is a cache hit — no refit ran *)
  let r = ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit") in
  let v = json_of r in
  Alcotest.(check bool) "cache hit" true (field "cached" v = J.Bool true);
  Alcotest.(check (option string)) "same fit id" (Some fit_id)
    (J.to_string_opt (field "fit" v));
  (* and the metrics confirm records were replayed, not refitted *)
  let m = ok (Serve.Client.request ~port "GET" "/metrics") in
  let has needle =
    let nl = String.length needle and body = m.Serve.Client.body in
    let hl = String.length body in
    let rec go i =
      i + nl <= hl && (String.sub body i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "replayed counter on /metrics" true
    (has "dlosn_store_replayed_records_total 1")

let test_solver_config_cache_key () =
  with_dir @@ fun dir ->
  with_server ~store_dir:dir @@ fun port ->
  let r1 = ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit") in
  let id1 = Option.get (J.to_string_opt (field "fit" (json_of r1))) in
  (* same observation, different grid: must be a different fit, not a
     cache hit aliased onto the default-solver one *)
  let body_nx =
    String.sub fit_body 0 (String.length fit_body - 1) ^ {|,"nx":61}|}
  in
  let r2 = ok (Serve.Client.request ~port ~body:body_nx "POST" "/fit") in
  Alcotest.(check int) "nx fit status" 200 r2.Serve.Client.status;
  let v2 = json_of r2 in
  Alcotest.(check bool) "not served from cache" true
    (field "cached" v2 = J.Bool false);
  let id2 = Option.get (J.to_string_opt (field "fit" v2)) in
  Alcotest.(check bool) "distinct fit ids" true (id1 <> id2);
  (* both are durable, under their own ids *)
  let records, _ = Store.load dir in
  Alcotest.(check int) "two records" 2 (List.length records);
  (* invalid solver options are rejected up front *)
  let bad =
    String.sub fit_body 0 (String.length fit_body - 1) ^ {|,"nx":2}|}
  in
  Alcotest.(check int) "bad nx is a 400" 400
    (ok (Serve.Client.request ~port ~body:bad "POST" "/fit")).Serve.Client.status

let test_predict_batch () =
  with_dir @@ fun dir ->
  with_server ~store_dir:dir @@ fun port ->
  ignore (ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit"));
  let r =
    ok
      (Serve.Client.request ~port
         ~body:{|{"points":[[2,3],[1,2],[3.5,4.5],[2,3]]}|} "POST" "/predict")
  in
  Alcotest.(check int) "batch status" 200 r.Serve.Client.status;
  let v = json_of r in
  let results = Option.get (J.to_list (field "results" v)) in
  Alcotest.(check int) "one result per point" 4 (List.length results);
  Alcotest.(check (option int)) "count field" (Some 4)
    (J.to_int (field "count" v));
  (* the batch path and the single-point path agree bit-for-bit *)
  let single = ok (Serve.Client.request ~port "GET" "/predict?x=2&t=3") in
  let d_single = Option.get (J.to_float (field "density" (json_of single))) in
  let d_batch =
    Option.get (J.to_float (field "density" (List.hd results)))
  in
  check_bits "batch = single" d_single d_batch;
  (* malformed and out-of-domain batches are 400s *)
  List.iter
    (fun body ->
      Alcotest.(check int)
        (Printf.sprintf "reject %s" body)
        400
        (ok (Serve.Client.request ~port ~body "POST" "/predict"))
          .Serve.Client.status)
    [
      {|{"points":[]}|};
      {|{"points":[[1]]}|};
      {|{"points":[[2,0.5]]}|};
      {|{"points":[[99,3]]}|};
      {|{"points":"nope"}|};
      {|{oops|};
    ];
  (* unknown fit id is a 404 *)
  Alcotest.(check int) "unknown fit" 404
    (ok
       (Serve.Client.request ~port ~body:{|{"fit":"zzz","points":[[2,3]]}|}
          "POST" "/predict"))
      .Serve.Client.status

let suite =
  [
    Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
    Alcotest.test_case "codec round-trip is bit-exact" `Quick
      test_encode_decode_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_decode_rejects_garbage;
    Alcotest.test_case "solver signature pinned" `Quick
      test_solver_signature_pinned;
    Alcotest.test_case "v1 payload decodes with model=dl" `Quick
      test_decode_v1_record;
    Alcotest.test_case "frame CRC catches bit flips" `Quick
      test_frame_corruption_detected;
    Alcotest.test_case "empty dir opens clean" `Quick test_empty_dir;
    Alcotest.test_case "append survives reopen" `Quick test_append_reload;
    Alcotest.test_case "duplicate id: last wins" `Quick
      test_duplicate_id_last_wins;
    Alcotest.test_case "torn WAL tail recovers prefix" `Quick
      test_truncated_wal_tail;
    Alcotest.test_case "bit-flipped record is dropped" `Quick
      test_bitflip_wal_record;
    Alcotest.test_case "mangled WAL header degrades" `Quick
      test_mangled_wal_header;
    Alcotest.test_case "gc round-trip" `Quick test_gc_roundtrip;
    Alcotest.test_case "gc retention" `Quick test_gc_retention;
    Alcotest.test_case "load is read-only" `Quick test_load_read_only;
    Alcotest.test_case "fit hook round-trips bit-exactly" `Slow
      test_fit_hook_roundtrip;
    Alcotest.test_case "serve warm restart over a store" `Slow
      test_serve_warm_restart;
    Alcotest.test_case "solver config is part of the cache key" `Slow
      test_solver_config_cache_key;
    Alcotest.test_case "POST /predict batch" `Slow test_predict_batch;
  ]
