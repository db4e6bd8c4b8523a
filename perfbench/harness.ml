(* perfbench: one workload per invocation, for the benchmark declared in
   BENCHMARK.json.

     harness.exe --dlosn PATH --workload NAME --seed N --seconds S --trace 0|1
     harness.exe --self-test

   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   report the per-layer ones.  The last line of standard output is the
   result object; everything before it is for people. *)

open Common

let setup_repeats = 3  (* set-up is timed this often per run; median *)
let serve_batches = 1000  (* serve-read requests per pass *)

(* Reference pass lengths, in seconds on a 2-core x86-64 container, used
   only to turn --seconds into a fixed number of passes: a run does the
   same work for the same seed and --seconds on any machine. *)
let nominal_pass_s = function
  | "calibrate" -> 5.5
  | "serve-read" -> 2.5
  | _ -> 4.

let min_passes = 2

let passes_for workload seconds =
  max min_passes (int_of_float (Float.round (float_of_int seconds /. nominal_pass_s workload)))

(* Every workload the harness can run.  BENCHMARK.json declares which of
   them the benchmark runs; traced runs measure all of them. *)
let phases = [ "calibrate"; "serve-read"; "ingest-refit" ]

type env =
  | Calib of W_calibrate.env
  | Serve of W_serve_read.env
  | Ingest of W_ingest.env

let setup_once ~dlosn ~seed ~k = function
  | "calibrate" -> Calib (W_calibrate.setup ~seed)
  | "serve-read" -> Serve (W_serve_read.setup ~dlosn ~seed ~name:(Printf.sprintf "serve-read-%d" k))
  | "ingest-refit" -> Ingest (W_ingest.setup ~dlosn ~seed ~name:(Printf.sprintf "ingest-refit-%d" k))
  | w -> failwith ("unknown workload " ^ w)

let teardown = function
  | Calib _ -> ()
  | Serve e ->
    W_serve_read.teardown e;
    Proc.stop e.W_serve_read.server.Proc.pid
  | Ingest e ->
    W_ingest.teardown e;
    Proc.stop e.W_ingest.server.Proc.pid

(* Set up [repeats] times, keeping the last; the median set-up time. *)
let setup ~dlosn ~seed ~repeats workload =
  let times = Array.make repeats nan in
  let env = ref None in
  for k = 0 to repeats - 1 do
    Option.iter teardown !env;
    let t0 = now () in
    let e = setup_once ~dlosn ~seed ~k workload in
    times.(k) <- now () -. t0;
    env := Some e
  done;
  (Option.get !env, Bstats.median times)

let run_pass env ~traced ~pass =
  Spans.on := traced;
  Fun.protect
    ~finally:(fun () -> Spans.on := false)
    (fun () ->
      match env with
      | Calib e -> W_calibrate.run_pass e ~traced
      | Serve e -> W_serve_read.run_pass e ~traced ~batches:serve_batches
      | Ingest e -> W_ingest.run_pass e ~traced ~pass)

let kv l = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)

let print_pass k (p : pass) =
  Printf.printf "pass %d: %.0f units in %.3f s (%.3f/s); work: %s%s\n%!" (k + 1) p.units p.wall_s
    (p.units /. p.wall_s) (kv p.work)
    (if p.observed = [] then "" else "; observed: " ^ kv p.observed);
  List.iter (fun e -> Printf.printf "  failed: %s\n" e) p.errors

(* Work counts must repeat exactly from pass to pass. *)
let work_repeats (ps : pass list) =
  match ps with [] -> true | p :: rest -> List.for_all (fun q -> q.work = p.work) rest

let latencies (ps : pass list) =
  Array.concat (List.map (fun p -> Array.map (fun v -> if Float.is_nan v then infinity else v) p.lat_ms) ps)

(* What each workload calls its units and operations, for the summary. *)
let names = function
  | "calibrate" -> ("stories_per_s", "story")
  | "serve-read" -> ("requests_per_s", "request")
  | _ -> ("votes_per_s", "observe")

let end_to_end workload ~setup_s (ps : pass list) =
  let lat = latencies ps in
  let n = Array.length lat in
  let q =
    match Bstats.tail_q n with
    | Some q -> q
    | None -> failwith (Printf.sprintf "%d operations are too few for a tail" n)
  in
  let rate = Bstats.median (Array.of_list (List.map (fun p -> p.units /. p.wall_s) ps)) in
  let p50 = Bstats.percentile lat ~q:500 and tail = Bstats.percentile lat ~q in
  let rate_name, op = names workload in
  Printf.printf "%s: %s=%.4g %s_p50_ms=%.4g %s_%s_ms=%.4g (%d operations) setup_s=%.4g\n"
    workload rate_name rate op p50 op (Bstats.tail_name q) tail n setup_s;
  (match List.concat_map (fun p -> Array.to_list p.refresh_ms) ps with
  | [] -> ()
  | r ->
    let r = Array.of_list r in
    Printf.printf "%s: refresh_p50_ms=%.4g refresh_p90_ms=%.4g (%d fits)\n" workload
      (Bstats.percentile r ~q:500) (Bstats.percentile r ~q:900) (Array.length r));
  [
    ("setup_s", setup_s);
    ("throughput_per_s", rate);
    ("latency_p50_ms", p50);
    ("latency_tail_ms", tail);
  ]

let mean_layers (ps : pass list) =
  match ps with
  | [] -> []
  | p :: _ ->
    List.map
      (fun (k, _) ->
        (k, Bstats.mean (Array.of_list (List.map (fun q -> List.assoc k q.layers) ps))))
      p.layers

let server_traces = ref []

let fetch_traces = function
  | Serve e -> server_traces := Hclient.call_ok e.W_serve_read.conns.(0) "GET" "/debug/traces?n=20" :: !server_traces
  | Ingest e -> server_traces := Hclient.call_ok e.W_ingest.conn "GET" "/debug/traces?n=20" :: !server_traces
  | Calib _ -> ()

let write_trace ~workload ~seed =
  Proc.mkdir_p Proc.work_root;
  let path = Filename.concat Proc.work_root (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  let folded =
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %d" k v :: acc) W_calibrate.folded []
    |> List.sort compare |> String.concat "\n"
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"workload\":%S,\"seed\":%d,\n\"spans\":%s,\n\"library_folded\":%S,\n\"server_traces\":[%s]}\n"
        workload seed (Spans.to_json !Spans.archived) folded
        (String.concat ",\n" (List.rev !server_traces)));
  Printf.printf "trace: %d harness spans written to %s\n" (List.length !Spans.archived) path

(* ingest-refit's own end-to-end numbers.  Its latencies swing too much
   with the host's speed to hold a regression bound, so they are
   reported per layer; two passes give p99 at least ten samples. *)
let ingest_diagnostics (ps : pass list) =
  let lat = latencies ps in
  [
    ( "ingest-refit.votes_per_s",
      Bstats.median (Array.of_list (List.map (fun p -> p.units /. p.wall_s) ps)) );
    ("ingest-refit.observe_p50_ms", Bstats.percentile lat ~q:500);
    ("ingest-refit.observe_p99_ms", Bstats.percentile lat ~q:990);
  ]

let side_passes = function "ingest-refit" -> 2 | _ -> 1

(* A traced run: the named workload's passes alternate untraced and
   traced (their rate difference is the tracing overhead), then traced
   passes of every other workload and the micro-benchmarks, so every
   per-layer metric is measured in every traced run. *)
let traced_run ~dlosn ~workload ~seed ~seconds =
  let p = passes_for workload seconds in
  let overhead = ref nan in
  let run w =
    let env, _ = setup ~dlosn ~seed ~repeats:1 w in
    let ps =
      if w = workload then
        List.init (2 * p) (fun k -> (k mod 2 = 1, run_pass env ~traced:(k mod 2 = 1) ~pass:k))
      else List.init (side_passes w) (fun k -> (true, run_pass env ~traced:true ~pass:k))
    in
    List.iteri
      (fun k (_, q) ->
        if w <> workload then Printf.printf "%s (side) " w;
        print_pass k q)
      ps;
    let rates traced =
      Array.of_list
        (List.filter_map (fun (t, q) -> if t = traced then Some (q.units /. q.wall_s) else None) ps)
    in
    if w = workload then
      overhead := ((Bstats.median (rates false) /. Bstats.median (rates true)) -. 1.) *. 100.;
    fetch_traces env;
    (w, env, List.map snd ps, List.filter_map (fun (t, q) -> if t then Some q else None) ps)
  in
  let runs = List.map run (workload :: List.filter (( <> ) workload) phases) in
  let env w = List.find_map (fun (w', e, _, _) -> if w = w' then Some e else None) runs |> Option.get in
  let calib = match env "calibrate" with Calib e -> e | _ -> assert false in
  let serve = match env "serve-read" with Serve e -> e | _ -> assert false in
  let ingest = match env "ingest-refit" with Ingest e -> e | _ -> assert false in
  let micro =
    Micro.run
      {
        Micro.exp = Option.get calib.W_calibrate.first;
        ds = calib.W_calibrate.ds;
        items = calib.W_calibrate.items;
        predict_request = serve.W_serve_read.sample_request;
        predict_response = serve.W_serve_read.sample_response;
        observe_body = ingest.W_ingest.sample_body;
        stream = ingest.W_ingest.streams.(0);
        store_dir = Filename.concat (Proc.run_dir ()) "micro-store";
      }
  in
  List.iter (fun (_, e, _, _) -> teardown e) runs;
  write_trace ~workload ~seed;
  let values =
    List.concat_map
      (fun (w, _, _, traced) ->
        mean_layers traced @ if w = "ingest-refit" then ingest_diagnostics traced else [])
      runs
    @ micro
    @ [
        ("socialnet.digg.build_s", calib.W_calibrate.build_s);
        ("socialnet.replay.simulate_ms", ingest.W_ingest.simulate_ms);
        ("obs.overhead_pct", !overhead);
      ]
  in
  List.iter (fun (k, v) -> Printf.printf "layer %s = %.6g\n" k v) values;
  let all = List.concat_map (fun (_, _, ps, _) -> ps) runs in
  let attempted = List.fold_left (fun a (q : pass) -> a + q.attempted) 0 all
  and failed = List.fold_left (fun a (q : pass) -> a + q.failed) 0 all in
  (values, attempted, failed, List.for_all (fun (_, _, _, traced) -> work_repeats traced) runs)

let untraced_run ~dlosn ~workload ~seed ~seconds =
  let env, setup_s = setup ~dlosn ~seed ~repeats:setup_repeats workload in
  let ps = List.init (passes_for workload seconds) (fun k -> run_pass env ~traced:false ~pass:k) in
  List.iteri print_pass ps;
  teardown env;
  let values = end_to_end workload ~setup_s ps in
  let attempted = List.fold_left (fun a (q : pass) -> a + q.attempted) 0 ps
  and failed = List.fold_left (fun a (q : pass) -> a + q.failed) 0 ps in
  (values, attempted, failed, work_repeats ps)

let main ~dlosn ~workload ~seed ~seconds ~trace =
  let decl = Report.read_decl "BENCHMARK.json" in
  if not (List.mem workload phases) then failwith ("unknown workload " ^ workload);
  if not (Sys.file_exists dlosn) then failwith ("no dlosn binary at " ^ dlosn);
  print_endline
    (Report.fingerprint ~workload ~seed ~seconds ~trace:(if trace then 1 else 0));
  let values, attempted, failed, repeats =
    if trace then traced_run ~dlosn ~workload ~seed ~seconds
    else untraced_run ~dlosn ~workload ~seed ~seconds
  in
  if not repeats then print_endline "work counts differ between passes";
  let declared = if trace then decl.Report.per_layer else decl.Report.end_to_end in
  print_endline
    (Report.result_line ~declared ~correct:(failed = 0 && repeats) ~attempted ~failed values)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let dlosn = ref "_build/default/bin/dlosn_cli.exe" and self_test = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_int seconds, "S nominal measured seconds (sets the pass count)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--dlosn", Arg.Set_string dlosn, "PATH the dlosn CLI binary servers are started from");
      ("--self-test", Arg.Set self_test, " check the harness's own logic and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self_test then exit (Selftest.run ());
  let started = now () in
  run_deadline := started +. 170.;
  (* a last resort if something blocks outside the harness's own waits *)
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> failwith "run exceeded 175 s"));
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> failwith "interrupted")))
    [ Sys.sigint; Sys.sigterm ];
  ignore (Unix.alarm 175);
  (* a server that dies mid-write must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    match
      main ~dlosn:!dlosn ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with
    | () -> 0
    | exception e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      1
  in
  ignore (Unix.alarm 0);
  Proc.cleanup ();
  exit code
