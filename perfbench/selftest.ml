(* The harness's own logic at a tiny size: the tail-percentile rule, the
   per-story pause bookkeeping and the shape of the result line. *)

let checks = ref 0
let failures = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "self-test FAILED: %s\n" name
  end

let tail () =
  check "9 samples have no tail" (Bstats.tail_q 9 = None);
  check "40 samples: p75" (Bstats.tail_q 40 = Some 750);
  check "99 samples: still p75" (Bstats.tail_q 99 = Some 750);
  check "100 samples: p90" (Bstats.tail_q 100 = Some 900);
  check "999 samples: p90" (Bstats.tail_q 999 = Some 900);
  check "1000 samples: p99" (Bstats.tail_q 1000 = Some 990);
  check "beyond p99: capped at p99" (Bstats.tail_q 100_000 = Some 990);
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let p90 = Bstats.percentile xs ~q:900 in
  check "p90 of 1..100 is 90" (p90 = 90.);
  check "ten samples beyond p90"
    (Array.fold_left (fun a v -> if v > p90 then a + 1 else a) 0 xs = 10);
  check "median of four" (Bstats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "p50 nearest rank" (Bstats.percentile [| 3.; 1.; 2. |] ~q:500 = 2.);
  check "tail names" (Bstats.tail_name 990 = "p99" && Bstats.tail_name 750 = "p75")

let pauses () =
  (* three stories with 2, 1 and 0 batches *)
  let f = Pauses.create [| 2; 1; 0 |] in
  check "empty story starts done" (not (Pauses.finished f));
  check "round robin starts at 0" (Pauses.next f = Some 0);
  Pauses.answered f 0 ~sent:10. ~scheduled:true;
  check "scheduling pauses only that story" (Pauses.paused f = [ 0 ]);
  check "others keep flowing" (Pauses.next f = Some 1);
  Pauses.answered f 1 ~sent:11. ~scheduled:false;
  check "nothing ready while 0 waits" (Pauses.next f = None);
  check "not finished while paused" (not (Pauses.finished f));
  Pauses.resumed f 1 ~now:12.;
  check "resuming a running story is a no-op" (Array.length (Pauses.refresh_s f) = 0);
  Pauses.resumed f 0 ~now:10.5;
  check "refresh runs from the scheduling send" (Pauses.refresh_s f = [| 0.5 |]);
  check "resumed story is next" (Pauses.next f = Some 0 && Pauses.batch f 0 = 1);
  Pauses.answered f 0 ~sent:13. ~scheduled:true;
  check "last batch may schedule too" (Pauses.paused f = [ 0 ]);
  Pauses.resumed f 0 ~now:14.;
  check "all done" (Pauses.finished f && Pauses.next f = None);
  check "two refreshes" (Array.length (Pauses.refresh_s f) = 2)

let shape () =
  let decl = Report.read_decl "BENCHMARK.json" in
  List.iter
    (fun declared ->
      let values = List.mapi (fun i (n, _) -> (n, 1.5 +. float_of_int i)) declared in
      let line = Report.result_line ~declared ~correct:true ~attempted:3 ~failed:0 values in
      match Serve.Tiny_json.parse line with
      | Error e -> check ("result line parses: " ^ e) false
      | Ok (Serve.Tiny_json.Object fields) ->
        check "exactly the four keys"
          (List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ]);
        (match List.assoc "metrics" fields with
        | Serve.Tiny_json.Object ms ->
          check "every declared metric, in order" (List.map fst ms = List.map fst declared);
          check "value and unit"
            (List.for_all2
               (fun (_, m) (_, u) ->
                 match m with
                 | Serve.Tiny_json.Object [ ("value", Serve.Tiny_json.Number v); ("unit", Serve.Tiny_json.String u') ] ->
                   Float.is_finite v && u = u'
                 | _ -> false)
               ms declared)
        | _ -> check "metrics is an object" false)
      | Ok _ -> check "result line is an object" false)
    [ decl.Report.end_to_end; decl.Report.per_layer ];
  let missing =
    match Report.result_line ~declared:decl.Report.end_to_end ~correct:true ~attempted:1 ~failed:0 [] with
    | _ -> false
    | exception Failure _ -> true
  in
  check "a missing metric is an error" missing;
  let nan_line =
    Report.result_line ~declared:[ ("x", "ms") ] ~correct:true ~attempted:1 ~failed:0 [ ("x", nan) ]
  in
  check "a non-finite value makes the run incorrect"
    (String.length nan_line > 17 && String.sub nan_line 0 17 = {|{"correct": false|})

let run () =
  tail ();
  pauses ();
  shape ();
  Printf.printf "self-test: %d checks, %d failed\n" !checks !failures;
  if !failures = 0 then 0 else 1
