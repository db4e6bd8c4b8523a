(* Obs: level filtering, JSON-lines well-formedness, deterministic
   shard merging across domains, span nesting, and the contract that
   matters most — enabling observability changes no numeric result. *)

open Numerics
module Pool = Parallel.Pool

let pool4 = Pool.create ~jobs:4 ()

(* Every test leaves the global obs state as it found it (disabled,
   silent, human sink, clean values): the other suites must never see
   logging side effects. *)
let with_obs_enabled f =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Log.set_level None;
      Obs.Log.set_sink Obs.Log.Human;
      Obs.Log.set_out prerr_endline;
      Obs.reset ())
    f

let capture_lines () =
  let lines = ref [] in
  Obs.Log.set_out (fun l -> lines := l :: !lines);
  fun () -> List.rev !lines

(* --- level filtering --- *)

let test_level_filtering () =
  with_obs_enabled @@ fun () ->
  let get = capture_lines () in
  let evaluated = ref 0 in
  let fields () =
    incr evaluated;
    [ Obs.Log.int "x" 1 ]
  in
  Obs.Log.set_level (Some Obs.Level.Warn);
  Obs.Log.debug ~fields "d";
  Obs.Log.info ~fields "i";
  Obs.Log.warn ~fields "w";
  Obs.Log.error ~fields "e";
  Alcotest.(check int) "only warn and error pass" 2 (List.length (get ()));
  Alcotest.(check int) "field closures run only when emitted" 2 !evaluated;
  Alcotest.(check bool) "would_log warn" true (Obs.Log.would_log Obs.Level.Warn);
  Alcotest.(check bool) "would_log info" false
    (Obs.Log.would_log Obs.Level.Info);
  (* level None silences everything even while enabled *)
  Obs.Log.set_level None;
  Obs.Log.error "dropped";
  Alcotest.(check int) "no level, no output" 2 (List.length (get ()))

let test_level_of_string () =
  (match Obs.Level.of_string "Debug" with
  | Ok Obs.Level.Debug -> ()
  | _ -> Alcotest.fail "expected Debug");
  (match Obs.Level.of_string "warning" with
  | Ok Obs.Level.Warn -> ()
  | _ -> Alcotest.fail "expected Warn");
  match Obs.Level.of_string "chatty" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error msg ->
    Alcotest.(check bool) "error lists the valid names" true
      (let names = Obs.Level.valid_names in
       let len = String.length names in
       let rec contains i =
         i + len <= String.length msg
         && (String.sub msg i len = names || contains (i + 1))
       in
       contains 0)

(* --- JSON-lines sink --- *)

(* Minimal JSON reader (the environment has no JSON library): enough to
   verify each emitted line is one well-formed object. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

let json_of_string s =
  let pos = ref 0 in
  let peek () = if !pos < String.length s then Some s.[!pos] else None in
  let next () =
    match peek () with
    | Some c ->
      incr pos;
      c
    | None -> failwith "unexpected end of input"
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if next () <> c then failwith (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match next () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let hex = String.init 4 (fun _ -> next ()) in
          let code = int_of_string ("0x" ^ hex) in
          if code < 128 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
        | c -> failwith (Printf.sprintf "bad escape %c" c));
        go ()
      | c when Char.code c < 0x20 -> failwith "unescaped control char"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> failwith "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        expect '}';
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> members ((k, v) :: acc)
          | '}' -> Jobj (List.rev ((k, v) :: acc))
          | _ -> failwith "expected , or }"
        in
        members []
      end
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        expect ']';
        Jlist []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elements (v :: acc)
          | ']' -> Jlist (List.rev (v :: acc))
          | _ -> failwith "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> failwith "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> String.length s then failwith "trailing garbage";
  v

let member k = function
  | Jobj kvs -> List.assoc_opt k kvs
  | _ -> None

let test_json_lines_well_formed () =
  with_obs_enabled @@ fun () ->
  let get = capture_lines () in
  Obs.Log.set_sink Obs.Log.Json;
  Obs.Log.set_level (Some Obs.Level.Debug);
  Obs.Log.info "plain";
  Obs.Log.warn
    ~fields:(fun () ->
      [
        Obs.Log.str "tricky" "quote\" backslash\\ newline\n tab\t ctrl\x01";
        Obs.Log.float "nan" Float.nan;
        Obs.Log.float "pi" 3.25;
        Obs.Log.int "n" (-7);
        Obs.Log.bool "flag" true;
      ])
    "msg with \"quotes\"";
  let lines = get () in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  List.iter
    (fun line ->
      let j = json_of_string line in
      (match member "level" j with
      | Some (Jstr _) -> ()
      | _ -> Alcotest.fail "missing level");
      match member "msg" j with
      | Some (Jstr _) -> ()
      | _ -> Alcotest.fail "missing msg")
    lines;
  let record = json_of_string (List.nth lines 1) in
  (match member "tricky" record with
  | Some (Jstr s) ->
    Alcotest.(check string) "escapes round-trip"
      "quote\" backslash\\ newline\n tab\t ctrl\x01" s
  | _ -> Alcotest.fail "missing tricky field");
  (match member "nan" record with
  | Some Jnull -> ()
  | _ -> Alcotest.fail "NaN must serialise as null");
  match member "pi" record with
  | Some (Jnum v) -> Alcotest.(check (float 0.)) "float field" 3.25 v
  | _ -> Alcotest.fail "missing pi field"

let test_metrics_json_parses () =
  with_obs_enabled @@ fun () ->
  let c = Obs.Metrics.counter "test.dump_counter" in
  let h = Obs.Metrics.histogram "test.dump_hist" in
  let g = Obs.Metrics.gauge "test.dump_gauge" in
  Obs.Metrics.incr ~by:3 c;
  Obs.Metrics.observe h 5e5;
  Obs.Metrics.set g 0.75;
  let j = json_of_string (Obs.Metrics.to_json_string ()) in
  (match member "schema" j with
  | Some (Jstr s) ->
    Alcotest.(check string) "schema" Obs.Metrics.schema_version s
  | _ -> Alcotest.fail "missing schema");
  let find_row section name =
    match member section j with
    | Some (Jlist rows) ->
      List.find_opt
        (fun r -> member "name" r = Some (Jstr name))
        rows
    | _ -> None
  in
  (match find_row "counters" "test.dump_counter" with
  | Some row ->
    Alcotest.(check bool) "counter value" true
      (member "value" row = Some (Jnum 3.))
  | None -> Alcotest.fail "counter row missing");
  (match find_row "gauges" "test.dump_gauge" with
  | Some row ->
    Alcotest.(check bool) "gauge value" true
      (member "value" row = Some (Jnum 0.75))
  | None -> Alcotest.fail "gauge row missing");
  match find_row "histograms" "test.dump_hist" with
  | Some row ->
    Alcotest.(check bool) "hist count" true (member "count" row = Some (Jnum 1.));
    (match member "buckets" row with
    | Some (Jlist buckets) ->
      Alcotest.(check int) "buckets include overflow"
        (Array.length Obs.Metrics.default_buckets + 1)
        (List.length buckets)
    | _ -> Alcotest.fail "buckets missing")
  | None -> Alcotest.fail "histogram row missing"

(* --- shard merging across domains --- *)

let merge_counter = Obs.Metrics.counter "test.merge_counter"
let merge_hist = Obs.Metrics.histogram "test.merge_hist"

let record_loop pool n =
  Obs.Metrics.reset ();
  Pool.parallel_for pool ~n (fun i ->
      Obs.Metrics.incr ~by:(i + 1) merge_counter;
      (* integer-valued observations: any summation order is exact *)
      Obs.Metrics.observe merge_hist (float_of_int i));
  ( Obs.Metrics.counter_value merge_counter,
    Obs.Metrics.histogram_count merge_hist,
    Obs.Metrics.histogram_sum merge_hist )

let test_merge_equals_sequential () =
  with_obs_enabled @@ fun () ->
  let n = 100 in
  let seq = record_loop Pool.sequential n in
  let par = record_loop pool4 n in
  let c, hc, hs = seq in
  Alcotest.(check int) "sequential counter" (n * (n + 1) / 2) c;
  Alcotest.(check int) "sequential hist count" n hc;
  Alcotest.(check (float 0.)) "sequential hist sum"
    (float_of_int (n * (n - 1) / 2))
    hs;
  Alcotest.(check bool) "4-domain merge equals sequential totals" true
    (seq = par)

let test_per_domain_task_counters () =
  with_obs_enabled @@ fun () ->
  Obs.Metrics.reset ();
  let n = 100 in
  Pool.parallel_for pool4 ~n (fun i -> Obs.Metrics.incr ~by:i merge_counter);
  let per_domain =
    List.init (Pool.jobs pool4) (fun k ->
        Obs.Metrics.counter_value
          (Obs.Metrics.counter ~label:(string_of_int k)
             "pool.tasks_per_domain"))
  in
  List.iteri
    (fun k v ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d ran tasks" k)
        true (v > 0))
    per_domain;
  Alcotest.(check int) "per-domain tasks sum to n" n
    (List.fold_left ( + ) 0 per_domain)

(* --- span nesting --- *)

let test_span_nesting () =
  with_obs_enabled @@ fun () ->
  Obs.Span.reset ();
  let v =
    Obs.Span.with_span "outer"
      ~attrs:(fun () -> [ Obs.Log.int "k" 1 ])
      (fun () ->
        let a =
          Obs.Span.with_span "inner" (fun () ->
              Obs.Span.add_attr "note" (Obs.Log.String "x");
              1)
        in
        let b = Obs.Span.with_span "inner" (fun () -> 10) in
        let c = Obs.Span.with_span "last" (fun () -> 100) in
        a + b + c)
  in
  Alcotest.(check int) "body result" 111 v;
  (match Obs.Span.roots () with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" root.Obs.Span.name;
    Alcotest.(check bool) "root attr" true
      (root.Obs.Span.attrs = [ ("k", Obs.Log.Int 1) ]);
    let children = root.Obs.Span.children in
    Alcotest.(check (list string)) "children in order"
      [ "inner"; "inner"; "last" ]
      (List.map (fun s -> s.Obs.Span.name) children);
    let first = List.hd children in
    Alcotest.(check bool) "add_attr lands on the open span" true
      (first.Obs.Span.attrs = [ ("note", Obs.Log.String "x") ])
  | roots ->
    Alcotest.failf "expected one root, got %d" (List.length roots));
  let agg = Obs.Span.summary () in
  Alcotest.(check (list string)) "summary paths, parents first"
    [ "outer"; "outer/inner"; "outer/last" ]
    (List.map (fun a -> a.Obs.Span.path) agg);
  let inner_row = List.nth agg 1 in
  Alcotest.(check int) "repeated spans aggregate" 2 inner_row.Obs.Span.count

let test_span_survives_exception () =
  with_obs_enabled @@ fun () ->
  Obs.Span.reset ();
  (try
     Obs.Span.with_span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Obs.Span.roots () with
  | [ root ] -> Alcotest.(check string) "span closed" "failing" root.Obs.Span.name
  | _ -> Alcotest.fail "expected the failing span to be recorded"

(* --- span ids, timestamps and trace ids --- *)

let rec flatten_spans (s : Obs.Span.t) =
  s :: List.concat_map flatten_spans s.Obs.Span.children

let is_hex s n =
  String.length s = n
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let test_span_ids_and_timestamps () =
  with_obs_enabled @@ fun () ->
  Obs.Span.reset ();
  Obs.Span.with_span "outer" (fun () ->
      Obs.Span.with_span "inner" (fun () -> ());
      Obs.Span.with_span "inner" (fun () -> ()));
  let spans =
    match Obs.Span.roots () with
    | [ root ] -> flatten_spans root
    | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)
  in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  List.iter
    (fun (s : Obs.Span.t) ->
      Alcotest.(check bool)
        (s.Obs.Span.name ^ " span id is 16 hex chars")
        true
        (is_hex s.Obs.Span.span_id 16);
      Alcotest.(check string)
        (s.Obs.Span.name ^ " has no trace id outside a trace")
        "" s.Obs.Span.trace_id;
      Alcotest.(check bool)
        (s.Obs.Span.name ^ " end >= start")
        true
        (s.Obs.Span.end_ns >= s.Obs.Span.start_ns);
      Alcotest.(check int)
        (s.Obs.Span.name ^ " duration matches timestamps")
        (s.Obs.Span.end_ns - s.Obs.Span.start_ns)
        s.Obs.Span.dur_ns;
      Alcotest.(check bool)
        (s.Obs.Span.name ^ " duration non-negative")
        true (s.Obs.Span.dur_ns >= 0))
    spans;
  let ids = List.map (fun s -> s.Obs.Span.span_id) spans in
  Alcotest.(check int) "span ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_trace_id_stamping () =
  with_obs_enabled @@ fun () ->
  Obs.Span.reset ();
  let t1 = Obs.Span.gen_trace_id () and t2 = Obs.Span.gen_trace_id () in
  Alcotest.(check bool) "generated trace ids are 32 hex" true
    (is_hex t1 32 && is_hex t2 32);
  Alcotest.(check bool) "generated trace ids differ" true (t1 <> t2);
  Alcotest.(check (option string)) "no trace by default" None
    (Obs.Span.trace_id ());
  Obs.Span.with_trace_id t1 (fun () ->
      Alcotest.(check (option string)) "trace set inside" (Some t1)
        (Obs.Span.trace_id ());
      Obs.Span.with_span "req" (fun () ->
          Obs.Span.with_span "work" (fun () -> ())));
  Alcotest.(check (option string)) "trace restored" None (Obs.Span.trace_id ());
  match Obs.Span.roots () with
  | [ root ] ->
    List.iter
      (fun (s : Obs.Span.t) ->
        Alcotest.(check string)
          (s.Obs.Span.name ^ " carries the trace id")
          t1 s.Obs.Span.trace_id)
      (flatten_spans root)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_trace_id_in_logs () =
  with_obs_enabled @@ fun () ->
  let get = capture_lines () in
  let teed = ref [] in
  Obs.Log.set_tee (Some (fun r -> teed := r :: !teed));
  Fun.protect ~finally:(fun () -> Obs.Log.set_tee None) @@ fun () ->
  Obs.Log.set_sink Obs.Log.Json;
  Obs.Log.set_level (Some Obs.Level.Info);
  Obs.Span.set_trace_id (Some "cafe0000cafe0000cafe0000cafe0000");
  Obs.Log.info "traced";
  Obs.Span.set_trace_id None;
  Obs.Log.info "untraced";
  (match get () with
  | [ l1; l2 ] ->
    (match member "trace_id" (json_of_string l1) with
    | Some (Jstr id) ->
      Alcotest.(check string) "json trace_id"
        "cafe0000cafe0000cafe0000cafe0000" id
    | _ -> Alcotest.fail "traced record lacks trace_id");
    Alcotest.(check bool) "untraced record has no trace_id" true
      (member "trace_id" (json_of_string l2) = None)
  | lines -> Alcotest.failf "expected two lines, got %d" (List.length lines));
  match List.rev !teed with
  | [ r1; r2 ] ->
    Alcotest.(check (option string)) "tee carries trace id"
      (Some "cafe0000cafe0000cafe0000cafe0000")
      r1.Obs.Log.r_trace_id;
    Alcotest.(check (option string)) "tee without trace" None
      r2.Obs.Log.r_trace_id;
    Alcotest.(check string) "tee message" "traced" r1.Obs.Log.r_msg
  | rs -> Alcotest.failf "expected two teed records, got %d" (List.length rs)

(* --- span subscriber stream --- *)

let test_subscriber_ordering () =
  with_obs_enabled @@ fun () ->
  Obs.Span.reset ();
  let events = ref [] in
  let sub =
    Obs.Span.subscribe (fun ev ->
        events := (ev.Obs.Span.span.Obs.Span.name, ev.Obs.Span.root) :: !events)
  in
  Fun.protect ~finally:(fun () -> Obs.Span.unsubscribe sub) @@ fun () ->
  Obs.Span.with_span "parent" (fun () ->
      Obs.Span.with_span "c1" (fun () -> ());
      Obs.Span.with_span "c2" (fun () ->
          Obs.Span.with_span "grandchild" (fun () -> ())));
  Alcotest.(check (list (pair string bool)))
    "children fire strictly before parents; only the parent is a root"
    [
      ("c1", false); ("grandchild", false); ("c2", false); ("parent", true);
    ]
    (List.rev !events)

let test_subscriber_exceptions_swallowed () =
  with_obs_enabled @@ fun () ->
  Obs.Span.reset ();
  let count = ref 0 in
  let bad = Obs.Span.subscribe (fun _ -> failwith "subscriber boom") in
  let good = Obs.Span.subscribe (fun _ -> incr count) in
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.unsubscribe bad;
      Obs.Span.unsubscribe good)
  @@ fun () ->
  Alcotest.(check int) "body still runs" 7
    (Obs.Span.with_span "s" (fun () -> 7));
  Alcotest.(check int) "other subscribers still fire" 1 !count

let test_subscriber_under_pool () =
  with_obs_enabled @@ fun () ->
  Obs.Span.reset ();
  let mutex = Mutex.create () in
  let closes = ref 0 and roots = ref 0 and child_first = ref true in
  let sub =
    Obs.Span.subscribe (fun ev ->
        Mutex.lock mutex;
        (match ev.Obs.Span.span.Obs.Span.name with
        | "task" ->
          (* the parent closing before its child would be a bug *)
          if ev.Obs.Span.span.Obs.Span.children = [] then child_first := false;
          incr closes;
          if ev.Obs.Span.root then incr roots
        | _ -> ());
        Mutex.unlock mutex)
  in
  Fun.protect ~finally:(fun () -> Obs.Span.unsubscribe sub) @@ fun () ->
  let n = 32 in
  Pool.parallel_for pool4 ~n (fun _ ->
      Obs.Span.with_span "task" (fun () ->
          Obs.Span.with_span "step" (fun () -> ())));
  Alcotest.(check int) "every task close observed across 4 domains" n !closes;
  Alcotest.(check int) "each task span is a root in its shard" n !roots;
  Alcotest.(check bool) "task spans closed with their child attached" true
    !child_first

(* --- folded stacks --- *)

let test_folded_stacks () =
  with_obs_enabled @@ fun () ->
  Obs.Span.reset ();
  Obs.Span.with_span "root one" (fun () ->
      Obs.Span.with_span "story"
        ~attrs:(fun () -> [ Obs.Log.int "story" 17 ])
        (fun () -> ());
      Obs.Span.with_span "story"
        ~attrs:(fun () -> [ Obs.Log.int "story" 17 ])
        (fun () -> ()));
  let rows = Obs.Span.fold_stacks (Obs.Span.roots ()) in
  let stacks = List.map fst rows in
  Alcotest.(check (list string)) "stacks, parents first, merged, sanitised"
    [ "root_one"; "root_one;story[story=17]" ]
    stacks;
  List.iter
    (fun (stack, self) ->
      Alcotest.(check bool) (stack ^ " self-time >= 0") true (self >= 0))
    rows;
  let folded = Obs.Span.to_folded (Obs.Span.roots ()) in
  String.split_on_char '\n' folded
  |> List.iter (fun line ->
         if line <> "" then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "folded line without weight: %S" line
           | Some sp -> (
             match
               int_of_string_opt
                 (String.sub line (sp + 1) (String.length line - sp - 1))
             with
             | Some w -> Alcotest.(check bool) "weight >= 0" true (w >= 0)
             | None -> Alcotest.failf "bad weight in %S" line))

(* --- bit-identity: obs on/off must not change Fit results --- *)

let test_fit_bit_identity () =
  let obs = Test_parallel.synthetic_obs () in
  let fit () =
    Dl.Fit.fit ~config:Test_parallel.fast_fit_config ~pool:pool4
      (Rng.create 11) obs
  in
  Obs.set_enabled false;
  let off = fit () in
  let on =
    with_obs_enabled (fun () ->
        (* exercise the logger too: a captured sink keeps output clean *)
        let (_ : unit -> string list) = capture_lines () in
        Obs.Log.set_level (Some Obs.Level.Debug);
        fit ())
  in
  Alcotest.(check bool) "params bit-identical" true
    (Test_parallel.params_equal off.Dl.Fit.params on.Dl.Fit.params);
  Alcotest.(check bool) "training error bit-identical" true
    (Test_parallel.float_bits_equal off.Dl.Fit.training_error
       on.Dl.Fit.training_error);
  Alcotest.(check int) "same number of objective evaluations"
    off.Dl.Fit.evaluations on.Dl.Fit.evaluations

(* --- fit telemetry: where each polish started, and whether it converged --- *)

let test_fit_restart_telemetry () =
  let obs = Test_parallel.synthetic_obs () in
  let config = { Test_parallel.fast_fit_config with Dl.Fit.starts = 2 } in
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let restarts fit =
    Obs.Span.reset ();
    let cf0 = counter "fit.closed_form_evals"
    and co0 = counter "fit.coarse_evals"
    and ev0 = counter "fit.objective_evals" in
    let r = fit () in
    let spans =
      List.concat_map flatten_spans (Obs.Span.roots ())
      |> List.filter (fun s -> s.Obs.Span.name = "fit.restart")
    in
    List.iter
      (fun s ->
        Alcotest.(check bool) "converged attribute" true
          (match List.assoc_opt "converged" s.Obs.Span.attrs with
           | Some (Obs.Log.Bool _) -> true
           | _ -> false))
      spans;
    let start s =
      match List.assoc_opt "start" s.Obs.Span.attrs with
      | Some (Obs.Log.String k) -> k
      | _ -> Alcotest.fail "fit.restart span without a start attribute"
    in
    let span_coarse =
      List.fold_left
        (fun acc s ->
          match List.assoc_opt "coarse_evaluations" s.Obs.Span.attrs with
          | Some (Obs.Log.Int n) -> acc + n
          | _ -> acc)
        0 spans
    in
    Alcotest.(check int) "coarse evals = the spans' coarse_evaluations" span_coarse
      (counter "fit.coarse_evals" - co0);
    ( r,
      List.map start spans,
      counter "fit.closed_form_evals" - cf0,
      counter "fit.objective_evals" - ev0,
      span_coarse )
  in
  with_obs_enabled @@ fun () ->
  let cold, starts, cf, evals, coarse =
    restarts (fun () -> Dl.Fit.fit ~config (Rng.create 11) obs)
  in
  Alcotest.(check (list string)) "cold starts" [ "closed_form"; "coarse" ] starts;
  Alcotest.(check bool) "closed form evaluated" true (cf > 0);
  Alcotest.(check bool) "coarse grid evaluated" true (coarse > 0);
  Alcotest.(check int) "objective evals = result.evaluations"
    cold.Dl.Fit.evaluations evals;
  let _, starts, cf, _, _ =
    restarts (fun () ->
        Dl.Fit.fit ~config:{ config with Dl.Fit.starts = 1 }
          ~init:(Dl.Fit.Init_params cold.Dl.Fit.params) (Rng.create 11) obs)
  in
  Alcotest.(check (list string)) "warm start" [ "warm" ] starts;
  Alcotest.(check int) "a warm polish 0 skips the closed form" 0 cf;
  let _, starts, _, _, _ =
    restarts (fun () ->
        let config =
          { Dl.Linear_model.default_fit_config with
            Dl.Linear_model.fit_times = [| 2.; 3. |]; starts = 2;
            solver_nx = 21; solver_dt = 0.1 }
        in
        Dl.Linear_model.fit ~config (Rng.create 11) obs)
  in
  Alcotest.(check (list string)) "linear model starts" [ "random"; "random" ] starts

let suite =
  [
    Alcotest.test_case "level filtering" `Quick test_level_filtering;
    Alcotest.test_case "level of_string" `Quick test_level_of_string;
    Alcotest.test_case "json lines well-formed" `Quick
      test_json_lines_well_formed;
    Alcotest.test_case "metrics dump parses" `Quick test_metrics_json_parses;
    Alcotest.test_case "4-domain merge = sequential" `Quick
      test_merge_equals_sequential;
    Alcotest.test_case "per-domain task counters" `Quick
      test_per_domain_task_counters;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span survives exception" `Quick
      test_span_survives_exception;
    Alcotest.test_case "span ids and timestamps" `Quick
      test_span_ids_and_timestamps;
    Alcotest.test_case "trace id stamps spans" `Quick test_trace_id_stamping;
    Alcotest.test_case "trace id in log records" `Quick test_trace_id_in_logs;
    Alcotest.test_case "subscriber ordering" `Quick test_subscriber_ordering;
    Alcotest.test_case "subscriber exceptions swallowed" `Quick
      test_subscriber_exceptions_swallowed;
    Alcotest.test_case "subscriber under a 4-domain pool" `Quick
      test_subscriber_under_pool;
    Alcotest.test_case "folded stacks" `Quick test_folded_stacks;
    Alcotest.test_case "fit bit-identity with obs on" `Quick
      test_fit_bit_identity;
    Alcotest.test_case "fit restart spans: start and converged" `Quick
      test_fit_restart_telemetry;
  ]
