(* End-to-end request tracing through the serving layer: X-Trace-Id
   propagation into response headers and the trace ring, generated ids
   when callers send none (or junk), /debug/traces and /debug/flame,
   and the slow-request warn log carrying the trace id. *)

module J = Serve.Tiny_json

let with_server = Test_serve.with_server
let ok = Test_serve.ok
let json_of = Test_serve.json_of
let fit_body = Test_serve.fit_body
let contains = Test_serve.contains

let is_hex s n =
  String.length s = n
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let response_trace_id (r : Serve.Client.response) =
  match List.assoc_opt "x-trace-id" r.Serve.Client.headers with
  | Some id -> id
  | None -> Alcotest.fail "response lacks an X-Trace-Id header"

let traces_of port n =
  let r =
    ok (Serve.Client.request ~port "GET"
          (Printf.sprintf "/debug/traces?n=%d" n))
  in
  Alcotest.(check int) "/debug/traces status" 200 r.Serve.Client.status;
  match Option.bind (J.member "traces" (json_of r)) J.to_list with
  | Some l -> l
  | None -> Alcotest.fail "/debug/traces body lacks a traces list"

let str_member k j = Option.bind (J.member k j) J.to_string_opt

let test_header_roundtrip () =
  with_server @@ fun port ->
  let token = "my-trace_0123456789abcdef" in
  let r =
    ok
      (Serve.Client.request ~port
         ~headers:[ ("X-Trace-Id", token) ]
         ~body:fit_body "POST" "/fit")
  in
  Alcotest.(check int) "fit status" 200 r.Serve.Client.status;
  Alcotest.(check string) "trace id echoed in the response" token
    (response_trace_id r);
  (* the completed request must land in the trace ring with its id,
     route and a serve.request root span *)
  let entry =
    match
      List.find_opt
        (fun e -> str_member "trace_id" e = Some token)
        (traces_of port 32)
    with
    | Some e -> e
    | None -> Alcotest.fail "trace id not found in /debug/traces"
  in
  Alcotest.(check (option string)) "path recorded" (Some "/fit")
    (str_member "path" entry);
  Alcotest.(check (option int)) "status recorded" (Some 200)
    (Option.bind (J.member "status" entry) J.to_int);
  (match J.member "root" entry with
  | Some root ->
    Alcotest.(check (option string)) "root span name" (Some "serve.request")
      (str_member "name" root);
    Alcotest.(check bool) "root span has children" true
      (match Option.bind (J.member "children" root) J.to_list with
      | Some (_ :: _) -> true
      | _ -> false)
  | None -> Alcotest.fail "trace entry lacks a root span")

(* GET /live, because GET /healthz is answered on the event loop
   without a trace id *)
let test_generated_and_sanitised_ids () =
  with_server @@ fun port ->
  (* no header: the server mints a 32-hex id *)
  let r1 = ok (Serve.Client.request ~port "GET" "/live") in
  let id1 = response_trace_id r1 in
  Alcotest.(check bool) "generated id is 32 hex chars" true (is_hex id1 32);
  (* a second request gets a different id *)
  let r2 = ok (Serve.Client.request ~port "GET" "/live") in
  Alcotest.(check bool) "ids are per-request" true
    (id1 <> response_trace_id r2);
  (* junk tokens are replaced, never echoed back *)
  let r3 =
    ok
      (Serve.Client.request ~port
         ~headers:[ ("X-Trace-Id", "bad id!") ]
         "GET" "/live")
  in
  let id3 = response_trace_id r3 in
  Alcotest.(check bool) "junk token replaced" true (id3 <> "bad id!");
  Alcotest.(check bool) "replacement is 32 hex chars" true (is_hex id3 32)

let test_debug_flame () =
  with_server @@ fun port ->
  let r = ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit") in
  Alcotest.(check int) "fit status" 200 r.Serve.Client.status;
  let f = ok (Serve.Client.request ~port "GET" "/debug/flame") in
  Alcotest.(check int) "/debug/flame status" 200 f.Serve.Client.status;
  let body = f.Serve.Client.body in
  Alcotest.(check bool) "folded stacks mention serve.request" true
    (contains ~needle:"serve.request" body);
  (* every line is `stack weight` with a non-negative integer weight *)
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line = "" then ()
         else
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "flame line without weight: %S" line
           | Some sp -> (
             let w = String.sub line (sp + 1) (String.length line - sp - 1) in
             match int_of_string_opt w with
             | Some v when v >= 0 -> ()
             | _ -> Alcotest.failf "bad flame weight in %S" line))

let test_debug_traces_bad_n () =
  with_server @@ fun port ->
  let r = ok (Serve.Client.request ~port "GET" "/debug/traces?n=bad") in
  Alcotest.(check int) "non-numeric n rejected" 400 r.Serve.Client.status;
  let r2 = ok (Serve.Client.request ~port "GET" "/debug/traces?n=-1") in
  Alcotest.(check int) "negative n rejected" 400 r2.Serve.Client.status

let test_slow_request_warn () =
  (* a 0 ms threshold makes every request "slow" *)
  let config =
    { Test_serve.base_config with Serve.Server.slow_request_ms = 0. }
  in
  let mutex = Mutex.create () in
  let lines = ref [] in
  Obs.Log.set_out (fun l ->
      Mutex.lock mutex;
      lines := l :: !lines;
      Mutex.unlock mutex);
  Obs.Log.set_level (Some Obs.Level.Warn);
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_level None;
      Obs.Log.set_out prerr_endline)
  @@ fun () ->
  let token = "slowtrace0000000000000000000000ff" in
  ( with_server ~config @@ fun port ->
    let r =
      ok
        (Serve.Client.request ~port
           ~headers:[ ("X-Trace-Id", token) ]
           "GET" "/live")
    in
    Alcotest.(check int) "status" 200 r.Serve.Client.status );
  Mutex.lock mutex;
  let captured = String.concat "\n" !lines in
  Mutex.unlock mutex;
  Alcotest.(check bool) "slow-request warn emitted" true
    (contains ~needle:"serve.slow_request" captured);
  Alcotest.(check bool) "warn carries the trace id" true
    (contains ~needle:token captured)

let suite =
  [
    Alcotest.test_case "X-Trace-Id round-trip" `Quick test_header_roundtrip;
    Alcotest.test_case "generated and sanitised ids" `Quick
      test_generated_and_sanitised_ids;
    Alcotest.test_case "debug flame output" `Quick test_debug_flame;
    Alcotest.test_case "debug traces rejects bad n" `Quick
      test_debug_traces_bad_n;
    Alcotest.test_case "slow-request warn with trace id" `Quick
      test_slow_request_warn;
  ]
