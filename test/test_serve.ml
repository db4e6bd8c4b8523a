(* Tests for the prediction-serving layer: JSON codec, Prometheus
   rendering, and loopback round-trips against a live Server.t
   (endpoints, caching, limits, shedding, graceful drain). *)

module J = Serve.Tiny_json

(* --- Tiny_json --- *)

let test_json_roundtrip () =
  let cases =
    [
      ({|{"a":1,"b":[true,null,"x"],"c":{"d":-2.5}}|} : string);
      {|[]|};
      {|{}|};
      {|"é\n\t\\"|};
      {|-1.25e-3|};
    ]
  in
  List.iter
    (fun s ->
      match J.parse s with
      | Error e -> Alcotest.failf "parse %S failed: %s" s e
      | Ok v -> (
        (* round-trip through to_string must re-parse to the same value *)
        match J.parse (J.to_string v) with
        | Ok v' -> Alcotest.(check bool) "round-trip" true (v = v')
        | Error e -> Alcotest.failf "re-parse of %S failed: %s" s e))
    cases

let test_json_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "expected a parse error for %S" s
      | Error msg ->
        Alcotest.(check bool) "mentions byte offset" true
          (String.length msg > 0))
    [ "{"; "[1,"; {|{"a"}|}; "tru"; "1.2.3"; {|"unterminated|}; "[] []" ]

(* Nesting is capped so that a hostile body, such as 2 MB of '[' (the
   default max_body), cannot make the parser recurse once per byte: the
   parse stops at the byte that opens level 33. *)
let test_json_depth_limit () =
  let nested k = String.make k '[' ^ String.make k ']' in
  (match J.parse (nested 32) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "32 levels rejected: %s" e);
  (* the error names the byte that opens level 33 *)
  List.iter
    (fun (name, s, byte) ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error e ->
        Alcotest.(check int) (name ^ ": error offset") byte
          (Scanf.sscanf e "JSON parse error at byte %d" Fun.id))
    [
      ("33 levels", nested 33, 32);
      ("2 MB of '['", String.make (2 * 1024 * 1024) '[', 32);
      ("nested objects", String.concat "" (List.init 40 (fun _ -> {|{"a":|})), 32 * 5);
    ]

(* Finite documents at most 4 levels deep; strings take any byte, so
   escaping is exercised too. *)
let json_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun f -> J.Number (if Float.is_finite f then f else 0.)) float;
        map (fun s -> J.String s) (string_size (0 -- 8));
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.List l) (list_size (0 -- 4) (self (depth - 1))));
               ( 1,
                 map
                   (fun l -> J.Object l)
                   (list_size (0 -- 4) (pair (string_size (0 -- 6)) (self (depth - 1))))
               );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"json parse inverts to_string"
    (QCheck.make ~print:J.to_string json_gen)
    (fun v -> J.parse (J.to_string v) = Ok v)

(* Random bytes, biased toward JSON's structural characters, and valid
   documents with a few bytes replaced, deleted or inserted. *)
let garbage_gen =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (1, char); (2, oneofl [ '['; ']'; '{'; '}'; '"'; '\\'; ','; ':'; 'u'; '0'; '-'; 'e'; '.'; ' ' ]) ]
  in
  let edit s (op, i, c) =
    let n = String.length s in
    let i = if n = 0 then 0 else i mod n in
    match op with
    | 0 when n > 0 -> String.mapi (fun j d -> if j = i then c else d) s
    | 1 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  in
  oneof
    [
      string_size ~gen:byte (0 -- 64);
      map2
        (fun v edits -> List.fold_left edit (J.to_string v) edits)
        json_gen
        (list_size (1 -- 4) (triple (0 -- 2) nat byte));
    ]

let prop_json_never_raises =
  QCheck.Test.make ~count:1000 ~name:"json parse never raises"
    (QCheck.make ~print:(Printf.sprintf "%S") garbage_gen)
    (fun s -> match J.parse s with Ok _ | Error _ -> true)

(* The codec's output bytes are part of the API (clients compare
   densities bit for bit), so numbers must print exactly as the
   Printf formats they were defined by: "%.0f" for integral values
   below 1e15 in magnitude, "%.17g" otherwise, null when not finite. *)
let printf_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Bit patterns: uniform, then each binade's edges, subnormals, zeros,
   integers on both sides of 1e15, and the non-finite values. *)
let float_bits_gen =
  let open QCheck.Gen in
  let of_bits = map Int64.float_of_bits in
  let signed g = map2 (fun neg v -> if neg then -.v else v) bool g in
  frequency
    [
      (4, of_bits ui64);
      (* subnormals: exponent field zero *)
      (1, signed (of_bits (map (fun m -> Int64.shift_right_logical m 12) ui64)));
      (1, oneofl [ 0.; -0.; Float.max_float; -.Float.max_float; Float.min_float;
                   4.9e-324; 1e15; -1e15; 1e15 -. 1.; 1e15 +. 2.; 0.5; -0.5;
                   Float.nan; Float.infinity; Float.neg_infinity; 2. ** 53.;
                   2. ** 63.; 1e300; 1e-300 ]);
      (2, signed (map float_of_int (int_bound 1_000_000)));
      (1, signed (map (fun k -> 1e15 +. float_of_int (k - 500)) (int_bound 1000)));
      (1, signed (map (fun e -> 2. ** float_of_int (e - 1074)) (int_bound 2097)));
      (* the values a density response is made of *)
      (2, map2 (fun a b -> float_of_int a /. float_of_int (b + 1)) (int_bound 100_000) (int_bound 9999));
    ]

let prop_json_number_bytes =
  QCheck.Test.make ~count:3000 ~name:"json numbers print as their Printf formats"
    (QCheck.make
       ~print:(fun v -> Printf.sprintf "%h (bits %Lx)" v (Int64.bits_of_float v))
       float_bits_gen)
    (fun v ->
      J.to_string (J.Number v) = printf_number v
      && J.to_string (J.List [ J.Number v; J.Number v ])
         = "[" ^ printf_number v ^ "," ^ printf_number v ^ "]")

(* The parser as it was defined: one [Some c] per peeked byte, strings
   built a byte at a time.  It is the reference the serving parser is
   checked against, values and errors (message and byte offset) alike. *)
module Reference_json = struct
  exception Err of int * string

  let max_depth = 32

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let err msg = raise (Err (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> err (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else err (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then err "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
          if !pos >= n then err "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
            Buffer.add_char buf e;
            loop ()
          | 'n' ->
            Buffer.add_char buf '\n';
            loop ()
          | 't' ->
            Buffer.add_char buf '\t';
            loop ()
          | 'r' ->
            Buffer.add_char buf '\r';
            loop ()
          | 'b' ->
            Buffer.add_char buf '\b';
            loop ()
          | 'f' ->
            Buffer.add_char buf '\012';
            loop ()
          | 'u' ->
            if !pos + 4 > n then err "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> err "bad \\u escape"
            in
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
          | _ -> err "bad escape")
        | c when Char.code c < 0x20 -> err "control character in string"
        | c ->
          Buffer.add_char buf c;
          loop ()
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> J.Number v
      | None -> err "bad number"
    in
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> err "unexpected end of input"
      | Some ('{' | '[') when depth >= max_depth ->
        err (Printf.sprintf "nested deeper than %d levels" max_depth)
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J.Object []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ()
            | Some '}' -> advance ()
            | _ -> err "expected ',' or '}'"
          in
          members ();
          J.Object (List.rev !fields)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J.List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements ()
            | Some ']' -> advance ()
            | _ -> err "expected ',' or ']'"
          in
          elements ();
          J.List (List.rev !items)
        end
      | Some '"' -> J.String (parse_string ())
      | Some 't' -> literal "true" (J.Bool true)
      | Some 'f' -> literal "false" (J.Bool false)
      | Some 'n' -> literal "null" J.Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then err "trailing content";
      v
    with
    | v -> Ok v
    | exception Err (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)
end

(* Documents as clients write them (whitespace, escapes, exponents),
   then the same with a few bytes edited, plus random bytes. *)
let parse_input_gen =
  let open QCheck.Gen in
  let piece =
    oneofl
      [ " "; "\n\t"; "\\\""; "\\\\"; "\\/"; "\\n"; "\\u00e9"; "\\u20AC"; "\\uD83D";
        "\\u12"; "\\x"; "\001"; "\\"; "\""; "1e5"; "-0.25E-3"; "+1"; ".5"; "1.2.3";
        "tru"; "nul"; "false"; "[["; "]]"; "{}"; "{\"k\":"; ","; ":"; "\xc3\xa9" ]
  in
  let text = map (String.concat "") (list_size (0 -- 6) piece) in
  let with_strings =
    map2
      (fun key body -> Printf.sprintf {| { "%s" : [ "%s" , 1e-3 , true ] } |} key body)
      text text
  in
  let edit s (op, i, c) =
    let n = String.length s in
    let i = if n = 0 then 0 else i mod n in
    match op with
    | 0 when n > 0 -> String.mapi (fun j d -> if j = i then c else d) s
    | 1 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | _ -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  in
  frequency
    [
      (2, map J.to_string json_gen);
      (2, with_strings);
      (2, map2 (List.fold_left edit) with_strings (list_size (1 -- 3) (triple (0 -- 2) nat char)));
      (3, garbage_gen);
      (1, map (fun k -> String.make k '[' ^ "1" ^ String.make k ']') (30 -- 34));
    ]

let prop_json_parse_matches_reference =
  QCheck.Test.make ~count:3000 ~name:"json parse equals the reference parser"
    (QCheck.make ~print:(Printf.sprintf "%S") parse_input_gen)
    (fun s -> J.parse s = Reference_json.parse s)

let test_json_accessors () =
  match J.parse {|{"n":3,"f":2.5,"s":"hi","l":[1,2]}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check (option int)) "to_int" (Some 3)
      (Option.bind (J.member "n" v) J.to_int);
    Alcotest.(check (option int)) "to_int rejects fractions" None
      (Option.bind (J.member "f" v) J.to_int);
    Alcotest.(check (option string)) "to_string_opt" (Some "hi")
      (Option.bind (J.member "s" v) J.to_string_opt);
    Alcotest.(check int) "to_list" 2
      (List.length (Option.get (Option.bind (J.member "l" v) J.to_list)))

(* --- Prometheus rendering --- *)

(* every non-comment line must be `name{labels} value` with a parseable
   value; TYPE lines must precede their family's samples *)
let check_prometheus_format body =
  let typed = Hashtbl.create 16 in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then (
           match String.split_on_char ' ' line with
           | [ _; _; name; kind ] ->
             Alcotest.(check bool)
               (Printf.sprintf "known kind %s" kind)
               true
               (List.mem kind [ "counter"; "gauge"; "histogram" ]);
             Hashtbl.replace typed name ()
           | _ -> Alcotest.failf "malformed TYPE line %S" line)
         else if line.[0] = '#' then ()
         else
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "sample line without value: %S" line
           | Some sp ->
             let value = String.sub line (sp + 1) (String.length line - sp - 1) in
             (match float_of_string_opt value with
             | Some _ -> ()
             | None ->
               Alcotest.(check bool)
                 (Printf.sprintf "parseable value in %S" line)
                 true
                 (List.mem value [ "+Inf"; "-Inf"; "NaN" ]));
             let metric = String.sub line 0 sp in
             let base =
               match String.index_opt metric '{' with
               | Some b -> String.sub metric 0 b
               | None -> metric
             in
             let family =
               (* strip histogram/counter sample suffixes back to the
                  family name carrying the TYPE line *)
               List.fold_left
                 (fun acc suffix ->
                   match acc with
                   | Some _ -> acc
                   | None ->
                     let ls = String.length suffix and lb = String.length base in
                     if lb > ls && String.sub base (lb - ls) ls = suffix then
                       Some (String.sub base 0 (lb - ls))
                     else None)
                 None
                 [ "_bucket"; "_sum"; "_count" ]
               |> Option.value ~default:base
             in
             Alcotest.(check bool)
               (Printf.sprintf "TYPE line seen before %S" line)
               true
               (Hashtbl.mem typed base || Hashtbl.mem typed family))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_prometheus_renderer () =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let shard = Obs.Shard.create () in
  let body =
    Obs.Shard.with_shard shard (fun () ->
        let c = Obs.Metrics.counter "fit.fits" in
        Obs.Metrics.incr ~by:3 c;
        Obs.Metrics.to_prometheus_string ())
  in
  Alcotest.(check bool) "counter family present" true
    (contains ~needle:"# TYPE dlosn_fit_fits_total counter" body);
  Alcotest.(check bool) "counter value present" true
    (contains ~needle:"dlosn_fit_fits_total 3" body);
  check_prometheus_format body

(* --- live-server round-trips --- *)

let base_config = { Serve.Server.default_config with Serve.Server.port = 0 }

let with_server ?(config = base_config) f =
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

(* a small observation; with one Nelder-Mead start a fit converges
   quickly *)
let fit_body_with ~starts ~seed =
  Printf.sprintf
    {|{"distances":[1,2,3,4],"times":[1,2,3,4,5],
     "density":[[2.0,3.0,4.0,4.8,5.4],[1.2,1.9,2.7,3.4,4.0],
                [0.7,1.1,1.6,2.1,2.5],[0.4,0.6,0.9,1.2,1.5]],
     "starts":%d,"seed":%d}|}
    starts seed

let fit_body = fit_body_with ~starts:1 ~seed:3

let test_healthz () =
  with_server @@ fun port ->
  let r = ok (Serve.Client.request ~port "GET" "/healthz") in
  Alcotest.(check int) "status" 200 r.Serve.Client.status;
  Alcotest.(check string) "body" "ok\n" r.Serve.Client.body;
  Alcotest.(check (option string)) "answered without a trace id" None
    (List.assoc_opt "x-trace-id" r.Serve.Client.headers)

(* GET /healthz is answered on the event loop: while a slow /fit holds
   the only worker, a probe answers within 0.5 s, before the fit does.
   The fit (nx 401, dt 0.002, fit times 2 and 3) takes about 1.4 s on a
   2-core x86-64 host. *)
let test_healthz_beside_busy_worker () =
  with_server ~config:{ base_config with Serve.Server.jobs = 1 } @@ fun port ->
  let slow_fit =
    {|{"distances":[1,2,3,4],"times":[1,2,3,4,5],
      "density":[[2.0,3.0,4.0,4.8,5.4],[1.2,1.9,2.7,3.4,4.0],
                 [0.7,1.1,1.6,2.1,2.5],[0.4,0.6,0.9,1.2,1.5]],
      "starts":1,"seed":3,"nx":401,"dt":0.002,"fit_times":[2,3]}|}
  in
  let fit_status = ref 0 and fit_at = ref 0. in
  let fitter =
    Thread.create
      (fun () ->
        (match Serve.Client.request ~timeout:30. ~port ~body:slow_fit "POST" "/fit" with
        | Ok r -> fit_status := r.Serve.Client.status
        | Error _ -> ());
        fit_at := Unix.gettimeofday ())
      ()
  in
  (* let the fit reach the worker *)
  Thread.delay 0.1;
  let t0 = Unix.gettimeofday () in
  let probe = Serve.Client.request ~timeout:0.5 ~port "GET" "/healthz" in
  let t1 = Unix.gettimeofday () in
  Thread.join fitter;
  (match probe with
  | Ok r -> Alcotest.(check int) "healthz status" 200 r.Serve.Client.status
  | Error e -> Alcotest.failf "no healthz answer within 0.5 s: %s" e);
  if t1 -. t0 > 0.5 then Alcotest.failf "healthz took %.3f s" (t1 -. t0);
  Alcotest.(check bool) "the fit was still running" true (!fit_at > t1);
  Alcotest.(check int) "fit status" 200 !fit_status

let test_fit_predict_and_cache () =
  with_server @@ fun port ->
  (* no fit yet: predict must 404, not crash *)
  let r0 = ok (Serve.Client.request ~port "GET" "/predict?x=2&t=3") in
  Alcotest.(check int) "predict before fit" 404 r0.Serve.Client.status;
  let r1 = ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit") in
  Alcotest.(check int) "fit status" 200 r1.Serve.Client.status;
  let j1 = json_of r1 in
  Alcotest.(check (option bool)) "first fit is not cached" (Some false)
    (match J.member "cached" j1 with Some (J.Bool b) -> Some b | _ -> None);
  let id =
    match Option.bind (J.member "fit" j1) J.to_string_opt with
    | Some id -> id
    | None -> Alcotest.fail "fit response lacks an id"
  in
  (* identical body: cache hit with the same id *)
  let r2 = ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit") in
  let j2 = json_of r2 in
  Alcotest.(check (option bool)) "second fit is cached" (Some true)
    (match J.member "cached" j2 with Some (J.Bool b) -> Some b | _ -> None);
  Alcotest.(check (option string)) "same id" (Some id)
    (Option.bind (J.member "fit" j2) J.to_string_opt);
  (* predict against the implicit latest fit and the explicit id *)
  List.iter
    (fun target ->
      let r = ok (Serve.Client.request ~port "GET" target) in
      Alcotest.(check int) (target ^ " status") 200 r.Serve.Client.status;
      let d =
        Option.bind (J.member "density" (json_of r)) J.to_float |> Option.get
      in
      Alcotest.(check bool) (target ^ " density sane") true
        (Float.is_finite d && d >= 0.))
    [ "/predict?x=2&t=4"; "/predict?x=2.5&t=4.5&fit=" ^ id ];
  (* t = 1 is served straight from phi *)
  let r = ok (Serve.Client.request ~port "GET" "/predict?x=1&t=1") in
  let d = Option.bind (J.member "density" (json_of r)) J.to_float |> Option.get in
  Alcotest.(check (float 1e-6)) "phi at the first knot" 2.0 d

(* --- the application without sockets --- *)

(* [meth target] as the transport hands it over: its bytes through the
   incremental parser. *)
let http_request ?(body = "") meth target =
  let raw =
    Printf.sprintf "%s %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" meth target
      (String.length body) body
  in
  let p = Serve.Http.parser ~max_header:16384 ~max_body:(String.length body) in
  Serve.Http.parser_feed p (Bytes.of_string raw) 0 (String.length raw);
  match Serve.Http.parser_next p with
  | `Request r -> r
  | `More | `Error _ -> Alcotest.failf "%s %s did not parse" meth target

let with_app f =
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () -> f (Serve.Server.app base_config))

(* The handler's answer, computed on a thread: a handler that has not
   returned after 10 s fails the test instead of hanging it. *)
let answer app ?body meth target =
  let req = http_request ?body meth target in
  let result = ref None in
  ignore (Thread.create (fun () -> result := Some (Serve.Server.handle app req)) ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match !result with
    | Some (resp : Serve.Http.response) -> resp
    | None when Unix.gettimeofday () > deadline ->
      Alcotest.failf "no answer to %s %s within 10 s" meth target
    | None ->
      Thread.delay 0.001;
      wait ()
  in
  wait ()

let test_input_rejection () =
  with_app @@ fun app ->
  let status ?body meth target = (answer app ?body meth target).Serve.Http.status in
  let post body = status ~body "POST" "/fit" in
  Alcotest.(check int) "malformed JSON" 400 (post "{oops");
  Alcotest.(check int) "missing fields" 400 (post "{}");
  Alcotest.(check int) "times not from 1" 400
    (post {|{"distances":[1,2],"times":[2,3],"density":[[1,2],[1,2]]}|});
  Alcotest.(check int) "repeated distance" 400
    (post
       {|{"model":"epidemic","distances":[1,1],"times":[1,2],
          "density":[[1,2],[1,2]]}|});
  Alcotest.(check int) "ragged density" 400
    (post {|{"distances":[1,2],"times":[1,2],"density":[[1,2],[1]]}|});
  (* the solver refuses an unordered schedule on every evaluation, so
     these would fit nothing and answer 200 with a null error *)
  Alcotest.(check int) "times out of order" 400
    (post
       {|{"distances":[1,2],"times":[1,3,2,4],
          "density":[[2,3,4,5],[1,2,3,4]],"starts":1}|});
  Alcotest.(check int) "repeated time" 400
    (post
       {|{"distances":[1,2],"times":[1,2,2,4],
          "density":[[2,3,4,5],[1,2,3,4]],"starts":1}|});
  Alcotest.(check int) "fit_times out of order" 400
    (post
       {|{"distances":[1,2],"times":[1,2,4],"density":[[2,3,4],[1,2,3]],
          "fit_times":[4,2],"starts":1}|});
  Alcotest.(check int) "infinite density" 400
    (post
       {|{"distances":[1,2],"times":[1,2],"density":[[2,1e999],[1,2]],
          "starts":1}|});
  (* validation failures inside the model layer surface as 422 *)
  Alcotest.(check int) "all-zero densities" 422
    (post {|{"distances":[1,2],"times":[1,2],"density":[[0,1],[0,1]]}|});
  Alcotest.(check int) "bad predict params" 400 (status "GET" "/predict?x=abc&t=2");
  Alcotest.(check int) "unknown path" 404 (status "GET" "/nope");
  Alcotest.(check int) "wrong method" 405 (status "GET" "/fit")

(* Each body field reader's refusal, word for word: clients match on
   these messages. *)
let test_field_errors () =
  with_app @@ fun app ->
  let grid = {|"distances":[1,2],"times":[1,2],"density":[[1,2],[1,2]]|} in
  List.iter
    (fun (path, body, expected) ->
      let r = answer app ~body "POST" path in
      Alcotest.(check int) (body ^ ": status") 400 r.Serve.Http.status;
      Alcotest.(check (option string)) body (Some expected)
        (match J.parse r.Serve.Http.body with
        | Ok j -> Option.bind (J.member "error" j) J.to_string_opt
        | Error _ -> None))
    [
      ("/fit", "{}", {|missing field "distances"|});
      ("/fit", {|{"distances":"x"}|}, {|field "distances" must be an array|});
      ("/fit", {|{"distances":[1,"a"]}|}, {|field "distances" has a non-numeric element|});
      ( "/fit",
        {|{"distances":[1,2],"times":[1,2],"density":5}|},
        {|field "density" must be an array of per-distance rows|} );
      ( "/fit",
        {|{"distances":[1,2],"times":[1,2],"density":[[1,2],[1,"x"]]}|},
        {|field "density" rows must be arrays of numbers|} );
      ( "/fit",
        {|{"distances":[1,2],"times":[1,3,2],"density":[[1,2,3],[1,2,3]]}|},
        {|field "times" must be strictly increasing|} );
      ( "/fit",
        {|{"distances":[1,2],"times":[1,2],"density":[[1,1e999],[1,2]]}|},
        {|field "density" values must be finite|} );
      ( "/fit",
        Printf.sprintf {|{%s,"fit_times":[2,2]}|} grid,
        {|field "fit_times" must be strictly increasing|} );
      ("/fit", Printf.sprintf {|{%s,"population":"x"}|} grid, {|field "population" must be an array|});
      ("/fit", Printf.sprintf {|{%s,"model":3}|} grid, {|field "model" must be a string|});
      ("/fit", Printf.sprintf {|{%s,"starts":1.5}|} grid, {|field "starts" must be an integer|});
      ("/fit", Printf.sprintf {|{%s,"story":1}|} grid, {|field "story" must be a string|});
      ("/fit", Printf.sprintf {|{%s,"dt":"x"}|} grid, {|field "dt" must be a number|});
      ("/fit", Printf.sprintf {|{%s,"dt":2}|} grid, {|field "dt" must lie in (0, 1]|});
      ("/fit", Printf.sprintf {|{%s,"init":3}|} grid, {|field "init" must be a string|});
      ("/fit", Printf.sprintf {|{%s,"init":"disk"}|} grid, {|unknown init source "disk" (only "store")|});
      ("/predict", "{}", {|missing field "points" (an array of [x, t] pairs)|});
      ("/predict", {|{"points":3}|}, {|field "points" must be an array of [x, t] pairs|});
      ("/predict", {|{"points":[[1]]}|}, {|every point must be an [x, t] pair of finite numbers|});
      ("/predict", {|{"fit":3,"points":[[1,2]]}|}, {|field "fit" must be a string|});
      ("/observe", "{}", {|missing field "story"|});
      ("/observe", {|{"story":""}|}, {|field "story" must be a non-empty string|});
      ("/observe", {|{"story":"s"}|}, {|missing field "votes" (an array of vote objects)|});
      ("/observe", {|{"story":"s","votes":3}|}, {|field "votes" must be an array|});
      ( "/observe",
        {|{"story":"s","votes":[{"voter":1}]}|},
        {|every vote needs a finite non-negative "time" (hours since submission)|} );
      ("/observe", {|{"story":"s","votes":[],"times":"x"}|}, {|field "times" must be an array|});
      ( "/observe",
        {|{"story":"s","votes":[],"max_distance":"x"}|},
        {|field "max_distance" must be an integer|} );
      ("/observe", {|{"story":"s","votes":[],"lateness":"x"}|}, {|field "lateness" must be a number|});
      ("/observe", {|{"story":"s","votes":[],"lateness":-1}|}, {|field "lateness" must be non-negative|});
      ( "/observe",
        {|{"story":"s","votes":[],"initiator":"x"}|},
        {|field "initiator" must be an integer (a graph user id)|} );
    ]

(* A solve's cost grows with its target hour, so hours past the serving
   horizon (200) and batches naming more hours than the per-fit
   solution memo holds (64) are refused before any solve. *)
let test_serving_limits () =
  with_server @@ fun port ->
  ignore (ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit"));
  let get target = ok (Serve.Client.request ~port "GET" target) in
  let post path body = ok (Serve.Client.request ~port ~body "POST" path) in
  let accepted name (r : Serve.Client.response) =
    Alcotest.(check int) name 200 r.Serve.Client.status
  in
  let rejected name ~limit (r : Serve.Client.response) =
    Alcotest.(check int) name 400 r.Serve.Client.status;
    Alcotest.(check bool) (name ^ " names the limit") true
      (contains ~needle:limit r.Serve.Client.body)
  in
  let nums fmt xs = String.concat "," (List.map (Printf.sprintf fmt) xs) in
  let batch ts = Printf.sprintf {|{"points":[%s]}|} (nums "[2,%g]" ts) in
  let hours n = List.init n (fun k -> 2. +. (0.01 *. float_of_int k)) in
  let observe times =
    Printf.sprintf {|{"story":"s","votes":[],"times":[%s],"population":[10]}|}
      (nums "%g" times)
  in
  let first n = List.init n (fun k -> float_of_int (k + 1)) in
  accepted "GET t = 200" (get "/predict?x=2&t=200");
  rejected "GET t = 201" ~limit:"<= 200" (get "/predict?x=2&t=201");
  rejected "batch point at t = 201" ~limit:"<= 200" (post "/predict" (batch [ 2.; 201. ]));
  accepted "batch of 64 distinct t" (post "/predict" (batch (hours 64)));
  rejected "batch of 65 distinct t" ~limit:"64" (post "/predict" (batch (hours 65)));
  rejected "observe times past 200 h" ~limit:"200" (post "/observe" (observe [ 1.; 2.; 201. ]));
  rejected "observe 65 times" ~limit:"64" (post "/observe" (observe (first 65)));
  accepted "observe 64 times" (post "/observe" (observe (first 64)))

(* A /fit solve's cost is nx × its time steps, and every objective
   evaluation runs one; a live profile allocates max_distance × times
   counts.  Both are refused past their budgets before any work.  A fit
   past the budget would hold its worker for ever, so the handler runs
   with a deadline (see [answer]). *)
let test_work_budgets () =
  with_app @@ fun app ->
  let post path body = answer app ~body "POST" path in
  let fit ?(model = "dl") ?(nx = 41) ?(dt = "0.05") last =
    Printf.sprintf
      {|{"model":"%s","distances":[1,2],"times":[1,%g],
         "density":[[2,3],[1,2]],"starts":1,"nx":%d,"dt":%s}|}
      model last nx dt
  in
  let accepted name (r : Serve.Http.response) =
    Alcotest.(check int) name 200 r.Serve.Http.status
  in
  let rejected name ~limit (r : Serve.Http.response) =
    Alcotest.(check int) name 400 r.Serve.Http.status;
    Alcotest.(check bool) (name ^ " names the limit") true
      (contains ~needle:limit r.Serve.Http.body)
  in
  rejected "dt = 1e-300" ~limit:"2009900" (post "/fit" (fit ~dt:"1e-300" 2.));
  rejected "fit times past 200 h" ~limit:"200" (post "/fit" (fit 201.));
  (* persistence solves nothing, so the budget's edge costs nothing *)
  accepted "101 cells to 200 h at dt = 0.01"
    (post "/fit" (fit ~model:"persistence" ~nx:101 ~dt:"0.01" 200.));
  rejected "102 cells" ~limit:"2009900"
    (post "/fit" (fit ~model:"persistence" ~nx:102 ~dt:"0.01" 200.));
  let groups n = String.concat "," (List.init n (fun _ -> "10")) in
  let observe ?max_distance n =
    Printf.sprintf {|{"story":"s","votes":[],"times":[1,2],"population":[%s]%s}|}
      (groups n)
      (match max_distance with
      | Some d -> Printf.sprintf {|,"max_distance":%d|} d
      | None -> "")
  in
  rejected "max_distance 65" ~limit:"64"
    (post "/observe" (observe ~max_distance:65 65));
  rejected "65 population groups" ~limit:"64" (post "/observe" (observe 65));
  accepted "64 population groups" (post "/observe" (observe 64))

(* --- the served value and its cost --- *)

(* The fit_body observation with a model field; phi is its t = 1
   column. *)
let model_fit_body model =
  Printf.sprintf
    {|{"model":"%s","distances":[1,2,3,4],"times":[1,2,3,4,5],
     "density":[[2.0,3.0,4.0,4.8,5.4],[1.2,1.9,2.7,3.4,4.0],
                [0.7,1.1,1.6,2.1,2.5],[0.4,0.6,0.9,1.2,1.5]],
     "starts":1,"seed":3}|}
    model

let fit_body_phi () =
  Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4. |]
    ~densities:[| 2.0; 1.2; 0.7; 0.4 |]

let number name v =
  match Option.bind (J.member name v) J.to_float with
  | Some f -> f
  | None -> Alcotest.failf "no number %S in %s" name (J.to_string v)

(* The serving solve of a posted fit, rebuilt from the /fit response's
   params (printed with 17 digits, so exact): [times] -> the solution
   on the default grid (nx 101, dt 0.01, Strang). *)
let serving_solve model fit_json =
  let params = Option.get (J.member "params" fit_json) in
  let r =
    let g = Option.get (J.member "r" params) in
    match Option.bind (J.member "kind" g) J.to_string_opt with
    | Some "exp_decay" ->
      Dl.Growth.Exp_decay { a = number "a" g; b = number "b" g; c = number "c" g }
    | _ -> Dl.Growth.Constant (number "value" g)
  in
  let phi = fit_body_phi () in
  let d = number "d" params and l = number "l" params and big_l = number "L" params in
  match model with
  | "dl" ->
    let p = Dl.Params.make ~d ~k:(number "k" params) ~r ~l ~big_l in
    fun times -> (Dl.Model.solve p ~phi ~times).Dl.Model.pde
  | _ ->
    let p = Dl.Linear_model.make ~d ~r ~l ~big_l in
    fun times -> (Dl.Linear_model.solve p ~phi ~times).Dl.Linear_model.pde

(* The served I(x, t): the serving solve with snapshots at every whole
   hour 2, 3, ..., floor(t), then at t, evaluated at (x, t). *)
let defined_density solve ~x ~t =
  let h = int_of_float t in
  let hours = Array.init (max 0 (h - 1)) (fun k -> float_of_int (k + 2)) in
  Numerics.Pde.eval (solve (Array.append hours [| t |])) ~x ~t

let served_hours = [ 1.5; 2.; 3.0625; 4.; 4.5; 50.25; 200. ]
let served_xs = [ 1.; 2.5; 3.7; 4. ]

let batch_body points =
  Printf.sprintf {|{"points":[%s]}|}
    (String.concat "," (List.map (fun (x, t) -> Printf.sprintf "[%.17g,%.17g]" x t) points))

let batch_densities port points =
  let r = ok (Serve.Client.request ~port ~body:(batch_body points) "POST" "/predict") in
  Alcotest.(check int) "batch status" 200 r.Serve.Client.status;
  List.map (number "density")
    (Option.get (Option.bind (J.member "results" (json_of r)) J.to_list))

let get_density port ~x ~t =
  let r =
    ok (Serve.Client.request ~port "GET" (Printf.sprintf "/predict?x=%.17g&t=%.17g" x t))
  in
  Alcotest.(check int) "GET status" 200 r.Serve.Client.status;
  number "density" (json_of r)

let check_bits name expect got =
  if not (Int64.equal (Int64.bits_of_float expect) (Int64.bits_of_float got)) then
    Alcotest.failf "%s: served %.17g, defined %.17g" name got expect

(* GET answers each hour first (a memo miss, then hits), the batch
   after it (all hits); a second server answers the batch first.  All
   of them serve the definition bit for bit, and stay within 1e-10 of
   a solve straight to t (the whole-hour snapshots reset the solver's
   clock, which moves only the last bits). *)
let test_served_definition model () =
  let points = List.concat_map (fun t -> List.map (fun x -> (x, t)) served_xs) served_hours in
  let expected = ref [] in
  let fit port =
    let r = ok (Serve.Client.request ~port ~body:(model_fit_body model) "POST" "/fit") in
    Alcotest.(check int) "fit status" 200 r.Serve.Client.status;
    json_of r
  in
  (with_server @@ fun port ->
   let solve = serving_solve model (fit port) in
   expected := List.map (fun (x, t) -> defined_density solve ~x ~t) points;
   List.iter2
     (fun (x, t) e ->
       let name = Printf.sprintf "%s GET (%g, %g)" model x t in
       check_bits name e (get_density port ~x ~t);
       let direct = Numerics.Pde.eval (solve [| t |]) ~x ~t in
       if Float.abs (e -. direct) > 1e-10 *. Float.abs direct then
         Alcotest.failf "%s: %.17g vs a direct solve's %.17g" name e direct)
     points !expected;
   List.iter2
     (fun (x, t) (e, d) -> check_bits (Printf.sprintf "%s POST after GET (%g, %g)" model x t) e d)
     points
     (List.combine !expected (batch_densities port points)));
  with_server @@ fun port ->
  ignore (fit port);
  List.iter2
    (fun (x, t) (e, d) -> check_bits (Printf.sprintf "%s POST first (%g, %g)" model x t) e d)
    points
    (List.combine !expected (batch_densities port points))

(* The checkpoints a t resumes from are the same however they were
   reached: t = 4.5 before t = 120 (marching 2..4, then 4..120), after
   it (2..120 at once), or while two workers march concurrently. *)
let test_served_order_independent () =
  let hours = [ 4.5; 120.; 60.5; 199.75 ] in
  let fit port =
    ignore (ok (Serve.Client.request ~port ~body:(model_fit_body "dl") "POST" "/fit"))
  in
  let ask order =
    with_server @@ fun port ->
    fit port;
    List.map (fun t -> (t, get_density port ~x:2.5 ~t)) order
  in
  let forward = ask hours and backward = ask (List.rev hours) in
  let concurrent =
    with_server ~config:{ base_config with Serve.Server.jobs = 2 } @@ fun port ->
    fit port;
    let got = Array.make (List.length hours) Float.nan in
    List.mapi
      (fun i t -> Thread.create (fun () -> got.(i) <- get_density port ~x:2.5 ~t) ())
      hours
    |> List.iter Thread.join;
    List.mapi (fun i t -> (t, got.(i))) hours
  in
  List.iter
    (fun t ->
      let name = Printf.sprintf "t = %g" t in
      check_bits (name ^ ", backward") (List.assoc t forward) (List.assoc t backward);
      check_bits (name ^ ", concurrent") (List.assoc t forward) (List.assoc t concurrent))
    hours

let metric_value body name =
  let key = name ^ " " in
  let kl = String.length key in
  List.fold_left
    (fun acc line ->
      if String.length line > kl && String.sub line 0 kl = key then
        float_of_string (String.sub line kl (String.length line - kl))
      else acc)
    0.
    (String.split_on_char '\n' body)

(* A batch of 64 distinct hours spread over 2..200 marches the
   checkpoints to hour 199 once (198 hours of 100 steps) and resumes
   each hour from its whole hour (under 100 steps each): at most
   199 * 100 + 64 * 100 steps.  Solving each hour from t = 1 runs
   about 640,000. *)
let test_served_step_bound () =
  with_server @@ fun port ->
  ignore (ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit"));
  let steps () =
    metric_value
      (ok (Serve.Client.request ~port "GET" "/metrics")).Serve.Client.body
      "dlosn_pde_steps_total"
  in
  let before = steps () in
  let hours = List.init 63 (fun k -> 2.25 +. (3.125 *. float_of_int k)) @ [ 200. ] in
  let densities = batch_densities port (List.map (fun t -> (2., t)) hours) in
  Alcotest.(check int) "one density per hour" 64 (List.length densities);
  let ran = steps () -. before in
  if ran > 26_300. then Alcotest.failf "the batch ran %.0f steps (bound 26,300)" ran;
  Alcotest.(check bool) "the steps were counted" true (ran > 19_000.)

let test_metrics_endpoint () =
  with_server @@ fun port ->
  ignore (ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit"));
  let r = ok (Serve.Client.request ~port "GET" "/metrics") in
  Alcotest.(check int) "status" 200 r.Serve.Client.status;
  (match List.assoc_opt "content-type" r.Serve.Client.headers with
  | Some ct ->
    Alcotest.(check bool) "exposition content type" true
      (contains ~needle:"version=0.0.4" ct)
  | None -> Alcotest.fail "missing content type");
  let body = r.Serve.Client.body in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle body))
    [
      "dlosn_fit_fits_total 1";
      "dlosn_pde_solves_total";
      "dlosn_pool_parallel_calls_total";
      "# TYPE dlosn_serve_requests_total counter";
      {|dlosn_serve_requests_total{label="fit"} 1|};
      "dlosn_serve_fit_cache_misses_total 1";
      "dlosn_serve_request_ns_bucket";
    ];
  check_prometheus_format body

let test_oversized_body_rejected () =
  let config = { base_config with Serve.Server.max_body = 256 } in
  with_server ~config @@ fun port ->
  let big = String.make 1024 'x' in
  let r = ok (Serve.Client.request ~port ~body:big "POST" "/fit") in
  Alcotest.(check int) "413" 413 r.Serve.Client.status

let test_read_timeout () =
  let config = { base_config with Serve.Server.read_timeout = 0.2 } in
  with_server ~config @@ fun port ->
  (* a request that never finishes its header block *)
  let r = ok (Serve.Client.request_raw ~port "GET /healthz HTTP/1.1\r\n") in
  Alcotest.(check int) "408" 408 r.Serve.Client.status

let test_shedding () =
  (* max_conns = 0 sheds every connection — exercises the 503 path
     deterministically in any worker mode *)
  let config = { base_config with Serve.Server.max_conns = 0 } in
  with_server ~config @@ fun port ->
  let r = ok (Serve.Client.request ~port "GET" "/healthz") in
  Alcotest.(check int) "503" 503 r.Serve.Client.status

let test_graceful_drain () =
  let server = Serve.Server.create ~config:base_config () in
  let th = Thread.create Serve.Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join th;
      Obs.set_enabled false)
  @@ fun () ->
  let port = Serve.Server.port server in
  (* open a connection and send only half the request ... *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  send "GET /healthz HTTP/1.1\r\n";
  Thread.delay 0.2;
  (* ... request shutdown while it is in flight ... *)
  Serve.Server.stop server;
  Thread.delay 0.2;
  (* ... then finish the request: the drain must still answer it *)
  send "Connection: close\r\n\r\n";
  let buf = Bytes.create 4096 in
  let n = Unix.read fd buf 0 4096 in
  let head = Bytes.sub_string buf 0 n in
  Alcotest.(check bool) "drained request got a 200" true
    (contains ~needle:"200 OK" head);
  Thread.join th;
  Alcotest.(check bool) "run returned after drain" true
    (Serve.Server.requests_handled server >= 1)

let test_parallel_workers () =
  let config = { base_config with Serve.Server.jobs = 2 } in
  with_server ~config @@ fun port ->
  ignore (ok (Serve.Client.request ~port ~body:fit_body "POST" "/fit"));
  (* several concurrent predicts through the worker queue *)
  let results = Array.make 8 0 in
  let threads =
    Array.init 8 (fun i ->
        Thread.create
          (fun i ->
            let r =
              ok
                (Serve.Client.request ~port "GET"
                   (Printf.sprintf "/predict?x=2&t=%d" (2 + (i mod 3))))
            in
            results.(i) <- r.Serve.Client.status)
          i)
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i status ->
      Alcotest.(check int) (Printf.sprintf "predict %d" i) 200 status)
    results

(* --- socket-layer correctness --- *)

(* A signal landing mid-read must be retried, not reported as [Ok 0]
   (which callers read as a peer close).  The reader thread is the only
   one with SIGUSR1 unblocked, so the kill interrupts its blocking
   read; the data written afterwards must still arrive intact. *)
let test_eintr_read_retries () =
  let fired = ref false in
  let old = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> fired := true)) in
  Fun.protect ~finally:(fun () -> ignore (Sys.signal Sys.sigusr1 old))
  @@ fun () ->
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigusr1 ] : int list);
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ r; w ])
  @@ fun () ->
  let result = ref (Ok (-1)) in
  let reader =
    Thread.create
      (fun () ->
        ignore (Thread.sigmask Unix.SIG_UNBLOCK [ Sys.sigusr1 ] : int list);
        let buf = Bytes.create 64 in
        result :=
          Result.map
            (fun n -> Bytes.sub_string buf 0 n |> String.length)
            (Serve.Http.read_some r buf 0 64))
      ()
  in
  Thread.delay 0.2;
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  Thread.delay 0.2;
  ignore (Unix.write_substring w "hello" 0 5 : int);
  Thread.join reader;
  ignore (Thread.sigmask Unix.SIG_UNBLOCK [ Sys.sigusr1 ] : int list);
  (match !result with
  | Ok 5 -> ()
  | Ok n -> Alcotest.failf "read returned %d bytes, wanted 5" n
  | Error _ -> Alcotest.fail "read errored instead of retrying");
  Alcotest.(check bool) "signal was actually delivered" true !fired

(* a header block trickling in over many small writes must still parse
   (and in O(bytes): the terminator scan resumes, never restarts) *)
let test_multi_chunk_header () =
  with_server @@ fun port ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let request =
    "GET /healthz HTTP/1.1\r\nHost: x\r\n"
    ^ String.concat ""
        (List.init 64 (fun i ->
             Printf.sprintf "X-Filler-%02d: %s\r\n" i (String.make 120 'f')))
    ^ "Connection: close\r\n\r\n"
  in
  (* 40-byte slices, each its own packet (TCP_NODELAY keeps them small) *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let n = String.length request in
  let i = ref 0 in
  while !i < n do
    let len = min 40 (n - !i) in
    ignore (Unix.write_substring fd request !i len : int);
    if !i mod 400 = 0 then Thread.delay 0.005;
    i := !i + len
  done;
  let buf = Bytes.create 4096 in
  let got = Unix.read fd buf 0 4096 in
  Alcotest.(check bool) "chunked header answered 200" true
    (contains ~needle:"200 OK" (Bytes.sub_string buf 0 got))

(* '+' decodes to space in query strings only; in paths it is literal *)
let test_plus_decoding () =
  Alcotest.(check string) "path plus preserved" "/pre+dict"
    (Serve.Http.percent_decode "/pre+dict");
  Alcotest.(check string) "percent still decodes in paths" "/a b+c"
    (Serve.Http.percent_decode "/a%20b+c");
  Alcotest.(check (list (pair string string))) "query plus is space"
    [ ("q", "c d") ]
    (Serve.Http.parse_query "q=c+d");
  let p = Serve.Http.parser ~max_header:4096 ~max_body:4096 in
  let raw = "GET /a+b?q=c+d HTTP/1.1\r\n\r\n" in
  Serve.Http.parser_feed p (Bytes.of_string raw) 0 (String.length raw);
  match Serve.Http.parser_next p with
  | `Request req ->
    Alcotest.(check string) "parsed path keeps plus" "/a+b" req.Serve.Http.path;
    Alcotest.(check (option string)) "parsed query decodes plus" (Some "c d")
      (Serve.Http.query_param req "q")
  | `More | `Error _ -> Alcotest.fail "request did not parse"

(* two Content-Length headers frame the body two ways — smuggling bait *)
let test_duplicate_content_length () =
  with_server @@ fun port ->
  let r =
    ok
      (Serve.Client.request_raw ~port
         "POST /fit HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\
          Connection: close\r\n\r\n{}")
  in
  Alcotest.(check int) "duplicate Content-Length is a 400" 400
    r.Serve.Client.status

(* a chunked body is refused, not framed as empty with its chunk-size
   line parsed as the next request *)
let test_transfer_encoding_refused () =
  with_server @@ fun port ->
  let r =
    ok
      (Serve.Client.request_raw ~port
         "POST /fit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
          2\r\n{}\r\n0\r\n\r\n")
  in
  Alcotest.(check int) "Transfer-Encoding is a 400" 400 r.Serve.Client.status;
  Alcotest.(check bool) "the 400 names the header" true
    (contains ~needle:"Transfer-Encoding" r.Serve.Client.body)

(* --- incremental parsing under any chunking --- *)

(* Feed [chunks] in order, draining the parser after each feed, and
   stop at the first error: the requests parsed, that error, and (when
   there is none) whether a partial request is left and how many bytes
   are buffered. *)
let parse_outcome ~max_header ~max_body chunks =
  let p = Serve.Http.parser ~max_header ~max_body in
  let requests = ref [] in
  let rec drain () =
    match Serve.Http.parser_next p with
    | `Request r ->
      requests := r :: !requests;
      drain ()
    | `More -> None
    | `Error e -> Some e
  in
  let rec feed = function
    | [] -> None
    | chunk :: rest -> (
      Serve.Http.parser_feed p (Bytes.of_string chunk) 0 (String.length chunk);
      let error = drain () in
      (* memory bound: what a drained parser keeps is at most one head,
         one body and the read that just arrived *)
      let buffered = Serve.Http.parser_buffered p in
      if buffered > max_header + max_body + String.length chunk then
        Alcotest.failf "%d bytes buffered after a %d-byte read" buffered
          (String.length chunk);
      match error with Some e -> Some e | None -> feed rest)
  in
  let error = feed chunks in
  let partial =
    if error = None then
      Some (Serve.Http.parser_partial p, Serve.Http.parser_buffered p)
    else None
  in
  (List.rev !requests, error, partial)

(* A complete head over max_header is refused even when it arrives in
   one read, as it is when it trickles in. *)
let test_one_read_head_bound () =
  let head =
    "GET /healthz HTTP/1.1\r\n"
    ^ String.concat ""
        (List.init 160 (fun i ->
             Printf.sprintf "X-Filler-%03d: %s\r\n" i (String.make 110 'f')))
    ^ "\r\n"
  in
  let outcome chunk =
    let n = String.length head in
    parse_outcome ~max_header:(16 * 1024) ~max_body:0
      (List.init ((n + chunk - 1) / chunk) (fun k ->
           String.sub head (k * chunk) (min chunk (n - (k * chunk)))))
  in
  List.iter
    (fun chunk ->
      match outcome chunk with
      | [], Some (Serve.Http.Too_large _), None -> ()
      | _ -> Alcotest.failf "a %d-byte head in %d-byte reads was not Too_large"
               (String.length head) chunk)
    [ String.length head; 1024 ]

(* Streams of 1-4 pipelined requests: valid and malformed request
   lines, 0-5 headers (some long), a Content-Length that is missing,
   duplicated, not all digits or over the body bound, and sometimes a
   cut tail.  Bounds of 256 and 200 bytes make oversize cases common. *)
let http_stream_gen =
  let open QCheck.Gen in
  let token = string_size ~gen:(char_range 'a' 'z') (1 -- 8) in
  let request_line =
    frequency
      [
        ( 4,
          map3
            (fun meth path version -> Printf.sprintf "%s /%s %s" meth path version)
            (oneofl [ "GET"; "POST" ])
            token
            (oneofl [ "HTTP/1.1"; "HTTP/1.0" ]) );
        (1, oneofl [ ""; "GET /x"; "GET / HTTP/2.0"; "GET  / HTTP/1.1" ]);
      ]
  in
  let header =
    map2
      (fun name len -> Printf.sprintf "X-%s: %s" name (String.make len 'v'))
      token
      (frequency [ (3, 0 -- 20); (1, 50 -- 300) ])
  in
  let content_length =
    frequency
      [
        (3, map (fun n -> ([ Printf.sprintf "Content-Length: %d" n ], n)) (0 -- 250));
        (1, return ([], 0));
        ( 1,
          map
            (fun n ->
              ([ Printf.sprintf "Content-Length: %d" n; Printf.sprintf "Content-Length: %d" n ], n))
            (0 -- 20) );
        (1, map (fun v -> ([ "Content-Length: " ^ v ], 0)) (oneofl [ "abc"; "-1"; "1x"; ""; "0x1f"; "+31"; "3_1"; "0o37" ]));
      ]
  in
  let request =
    map3
      (fun line headers (cl, body_len) ->
        String.concat "\r\n" ((line :: headers) @ cl)
        ^ "\r\n\r\n" ^ String.make body_len 'b')
      request_line
      (list_size (0 -- 5) header)
      content_length
  in
  let* whole = map (String.concat "") (list_size (1 -- 4) request) in
  let* stream =
    frequency
      [ (2, return whole); (1, map (String.sub whole 0) (0 -- String.length whole)) ]
  in
  let+ cuts = list_size (0 -- 8) (0 -- String.length stream) in
  (stream, List.sort_uniq compare cuts)

let prop_http_chunking =
  QCheck.Test.make ~count:2000 ~name:"http parse is independent of chunking"
    (QCheck.make
       ~print:(fun (s, cuts) ->
         Printf.sprintf "%S cut at [%s]" s
           (String.concat "; " (List.map string_of_int cuts)))
       http_stream_gen)
    (fun (stream, cuts) ->
      let rec chunks lo = function
        | [] -> [ String.sub stream lo (String.length stream - lo) ]
        | cut :: rest -> String.sub stream lo (cut - lo) :: chunks cut rest
      in
      let outcome = parse_outcome ~max_header:256 ~max_body:200 in
      let ((requests, _, _) as whole) = outcome [ stream ] in
      let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
      (* no request is framed by a Content-Length other than 1*DIGIT *)
      List.for_all
        (fun r ->
          Option.fold ~none:true ~some:digits
            (Serve.Http.header r "content-length"))
        requests
      && outcome (chunks 0 cuts) = whole)

(* --- keep-alive --- *)

(* dlosn_serve_connections_reused_total from a /metrics body *)
let reused_total body =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ "dlosn_serve_connections_reused_total"; v ] -> int_of_string_opt v
         | _ -> None)

let test_keep_alive_reuse () =
  with_server @@ fun port ->
  let conn =
    match Serve.Client.connect ~port () with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect failed: %s" e
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close conn)
  @@ fun () ->
  let r1 = ok (Serve.Client.request_on conn "GET" "/healthz") in
  Alcotest.(check int) "first request" 200 r1.Serve.Client.status;
  Alcotest.(check (option string)) "response advertises keep-alive"
    (Some "keep-alive")
    (List.assoc_opt "connection" r1.Serve.Client.headers);
  let r2 = ok (Serve.Client.request_on conn "GET" "/healthz") in
  Alcotest.(check int) "second request, same socket" 200
    r2.Serve.Client.status;
  (* the reuse counter must be visible on /metrics — over this very
     connection, which is itself the second and third reuse *)
  let r3 = ok (Serve.Client.request_on conn "GET" "/metrics") in
  (match reused_total r3.Serve.Client.body with
  | Some n when n >= 2 -> ()
  | Some n -> Alcotest.failf "reuse counter %d, wanted >= 2" n
  | None -> Alcotest.fail "dlosn_serve_connections_reused_total not exported")

let test_pipelined_pair () =
  with_server @@ fun port ->
  let conn =
    match Serve.Client.connect ~port () with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect failed: %s" e
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close conn)
  @@ fun () ->
  (* both requests on the wire before either response is read *)
  (match Serve.Client.send_request conn "GET" "/healthz" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send 1: %s" e);
  (match Serve.Client.send_request conn "GET" "/nope" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send 2: %s" e);
  let r1 = ok (Serve.Client.recv_response conn) in
  let r2 = ok (Serve.Client.recv_response conn) in
  Alcotest.(check int) "first response in order" 200 r1.Serve.Client.status;
  Alcotest.(check string) "first body" "ok\n" r1.Serve.Client.body;
  Alcotest.(check int) "second response in order" 404 r2.Serve.Client.status

(* a burst larger than the server's pipeline window (8), written in one
   packet with no further bytes: the tail sits in the parser buffer, so
   responses only keep coming if the server re-drains the parser as the
   window frees (the socket never turns readable again).  GET /live
   runs on a worker, so the window frees only as workers answer. *)
let test_pipeline_beyond_window () =
  with_server @@ fun port ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let n_reqs = 12 in
  let burst =
    String.concat ""
      (List.init n_reqs (fun i ->
           if i = n_reqs - 1 then
             "GET /live HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
           else "GET /live HTTP/1.1\r\nHost: x\r\n\r\n"))
  in
  ignore (Unix.write_substring fd burst 0 (String.length burst) : int);
  (* the final Connection: close gives the stream an EOF terminator *)
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      read_all ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all ()
  in
  read_all ();
  let body = Buffer.contents buf in
  let count =
    let needle = "HTTP/1.1 200 OK" in
    let nl = String.length needle in
    let rec go i acc =
      if i + nl > String.length body then acc
      else if String.sub body i nl = needle then go (i + nl) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "every pipelined request answered" n_reqs count

let test_idle_timeout_closes () =
  let config = { base_config with Serve.Server.idle_timeout = 0.3 } in
  with_server ~config @@ fun port ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let req = "GET /healthz HTTP/1.1\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req) : int);
  let buf = Bytes.create 4096 in
  let n = Unix.read fd buf 0 4096 in
  Alcotest.(check bool) "request before going idle answered" true
    (contains ~needle:"200 OK" (Bytes.sub_string buf 0 n));
  (* now sit idle past the deadline: the server must close its end *)
  let n = Unix.read fd buf 0 4096 in
  Alcotest.(check int) "idle connection closed by the server" 0 n

let test_connection_close_honoured () =
  with_server @@ fun port ->
  let conn =
    match Serve.Client.connect ~port () with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect failed: %s" e
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close conn)
  @@ fun () ->
  let r =
    ok
      (Serve.Client.request_on conn
         ~headers:[ ("Connection", "close") ]
         "GET" "/healthz")
  in
  Alcotest.(check int) "status" 200 r.Serve.Client.status;
  Alcotest.(check (option string)) "response confirms close" (Some "close")
    (List.assoc_opt "connection" r.Serve.Client.headers);
  (* the server must actually close: a follow-up read sees EOF *)
  match Serve.Client.recv_response conn with
  | Ok _ -> Alcotest.fail "connection stayed open after Connection: close"
  | Error _ -> ()

(* --- a server process under 1000 keep-alive connections --- *)

(* The server is a child exec'd from the built CLI.  It cannot be
   forked (OCaml 5 forbids Unix.fork once the test runner has spawned
   domains) or run in-process (its accepted fds would pass
   Unix.select's 1024-descriptor limit). *)
let spawn_dlosn_serve () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/dlosn_cli.exe"
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out_w;
        Unix.close devnull)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--port"; "0"; "--jobs"; "2"; "--log-level"; "error" |]
          devnull out_w Unix.stderr)
  in
  (pid, out_r)

(* The port from the server's first stdout line, "dlosn serving on
   http://127.0.0.1:PORT ...", read from [fd] until [deadline]. *)
let read_port ~deadline fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let port_in text =
    match String.index_opt text '\n' with
    | None -> None
    | Some eol -> (
      try
        Scanf.sscanf (String.sub text 0 eol) "dlosn serving on http://127.0.0.1:%d"
          Option.some
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  in
  let rec wait () =
    match port_in (Buffer.contents buf) with
    | Some port -> port
    | None -> (
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Alcotest.fail "dlosn serve announced no port";
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> wait ()
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.fail "dlosn serve exited before announcing a port";
        Buffer.add_subbytes buf chunk 0 n;
        wait ())
  in
  wait ()

let test_thousand_connection_drain () =
  (* a write to a socket the server has closed must fail with EPIPE,
     not kill the test runner *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let nconns = 1000 and rounds = 5 and window = 32 and in_flight = 100 in
  let pid, out = spawn_dlosn_serve () in
  let conns = ref [||] and reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Serve.Client.close !conns;
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
      Unix.close out)
  @@ fun () ->
  let port = read_port ~deadline:(Unix.gettimeofday () +. 30.) out in
  let expect_200 what = function
    | Ok r when r.Serve.Client.status = 200 -> r
    | Ok r -> Alcotest.failf "%s: status %d" what r.Serve.Client.status
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let target_of k = Printf.sprintf "/predict?x=2&t=%d" (2 + (k mod 3)) in
  ignore (expect_200 "warm /fit" (Serve.Client.request ~port ~body:fit_body "POST" "/fit"));
  conns :=
    Array.init nconns (fun k ->
        match Serve.Client.connect ~port () with
        | Ok c -> c
        | Error e -> Alcotest.failf "connection %d: %s" k e);
  let conns = !conns in
  let send ?body k meth target =
    match Serve.Client.send_request conns.(k) ?body meth target with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send on connection %d: %s" k e
  in
  let recv k =
    ignore (expect_200 (Printf.sprintf "connection %d" k) (Serve.Client.recv_response conns.(k)))
  in
  (* each round walks every connection once, [window] requests in
     flight across connections at a time *)
  for _ = 1 to rounds do
    let i = ref 0 in
    while !i < nconns do
      let hi = min nconns (!i + window) in
      for k = !i to hi - 1 do send k "GET" (target_of k) done;
      for k = !i to hi - 1 do recv k done;
      i := hi
    done
  done;
  (* read over a live connection: a fresh one would be the 1001st *)
  let scrape = expect_200 "/metrics" (Serve.Client.request_on conns.(0) "GET" "/metrics") in
  (match reused_total scrape.Serve.Client.body with
  | Some n when n >= 2 * nconns -> ()
  | Some n -> Alcotest.failf "reuse counter %d, wanted >= %d" n (2 * nconns)
  | None -> Alcotest.fail "dlosn_serve_connections_reused_total not exported");
  (* SIGTERM under load.  Two cold fits of 8 restarts (~0.4 s each on
     a 2-core x86-64 host) hold both workers, so the /predicts behind
     them are still queued when the signal lands.  The drain must
     answer all [in_flight] requests with a 200, then exit 0. *)
  send 0 ~body:(fit_body_with ~starts:8 ~seed:101) "POST" "/fit";
  send 1 ~body:(fit_body_with ~starts:8 ~seed:102) "POST" "/fit";
  for k = 2 to in_flight - 1 do send k "GET" (target_of k) done;
  (* let the requests reach the server before the signal *)
  ignore (Unix.select [] [] [] 0.05);
  Unix.kill pid Sys.sigterm;
  for k = 0 to in_flight - 1 do recv k done;
  let deadline = Unix.gettimeofday () +. 15. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      ignore (Unix.select [] [] [] 0.05);
      reap ()
    | 0, _ -> Alcotest.fail "server still running 15 s after SIGTERM"
    | _, status ->
      reaped := true;
      status
  in
  match reap () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "server exited %d after SIGTERM" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Alcotest.failf "server stopped by signal %d" s

let suite =
  [
    Alcotest.test_case "json round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "json reports errors" `Quick test_json_errors;
    Alcotest.test_case "json nesting depth bounded" `Quick test_json_depth_limit;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_never_raises;
    QCheck_alcotest.to_alcotest prop_json_number_bytes;
    QCheck_alcotest.to_alcotest prop_json_parse_matches_reference;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "prometheus renderer" `Quick test_prometheus_renderer;
    Alcotest.test_case "healthz" `Quick test_healthz;
    Alcotest.test_case "healthz while a fit holds the only worker" `Quick
      test_healthz_beside_busy_worker;
    Alcotest.test_case "fit, predict and cache" `Slow
      test_fit_predict_and_cache;
    Alcotest.test_case "input rejection" `Quick test_input_rejection;
    Alcotest.test_case "body field errors" `Quick test_field_errors;
    Alcotest.test_case "serving horizon and batch limits" `Quick
      test_serving_limits;
    Alcotest.test_case "fit and observe work budgets" `Quick test_work_budgets;
    Alcotest.test_case "dl serves the hourly-checkpoint value" `Slow
      (test_served_definition "dl");
    Alcotest.test_case "dl-linear serves the hourly-checkpoint value" `Slow
      (test_served_definition "dl-linear");
    Alcotest.test_case "served value independent of request order" `Quick
      test_served_order_independent;
    Alcotest.test_case "64-hour batch step bound" `Quick test_served_step_bound;
    Alcotest.test_case "metrics endpoint" `Slow test_metrics_endpoint;
    Alcotest.test_case "oversized body rejected" `Quick
      test_oversized_body_rejected;
    Alcotest.test_case "read timeout" `Quick test_read_timeout;
    Alcotest.test_case "shedding under load" `Quick test_shedding;
    Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
    Alcotest.test_case "parallel workers" `Slow test_parallel_workers;
    Alcotest.test_case "EINTR read retries" `Quick test_eintr_read_retries;
    Alcotest.test_case "multi-chunk header" `Quick test_multi_chunk_header;
    Alcotest.test_case "plus decoding" `Quick test_plus_decoding;
    Alcotest.test_case "Transfer-Encoding refused" `Quick
      test_transfer_encoding_refused;
    Alcotest.test_case "duplicate Content-Length" `Quick
      test_duplicate_content_length;
    Alcotest.test_case "one-read head over max_header" `Quick
      test_one_read_head_bound;
    QCheck_alcotest.to_alcotest prop_http_chunking;
    Alcotest.test_case "keep-alive reuse" `Quick test_keep_alive_reuse;
    Alcotest.test_case "pipelined pair" `Quick test_pipelined_pair;
    Alcotest.test_case "pipeline beyond window" `Quick
      test_pipeline_beyond_window;
    Alcotest.test_case "idle timeout closes" `Quick test_idle_timeout_closes;
    Alcotest.test_case "Connection: close honoured" `Quick
      test_connection_close_honoured;
    Alcotest.test_case "1000-connection drain" `Slow
      test_thousand_connection_drain;
  ]
