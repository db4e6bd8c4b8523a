type t = { jobs : int }

let env_var = "DLOSN_NUM_DOMAINS"

let default_jobs () =
  match Sys.getenv_opt env_var with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)

let sequential = { jobs = 1 }

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Parallel.Pool.create: jobs must be >= 1";
  { jobs }

let jobs t = t.jobs

(* Run every thunk to completion.  The first runs on the calling domain,
   so a batch of [w] workers costs [w - 1] spawns. *)
let run thunks =
  match Array.length thunks with
  | 0 -> ()
  | 1 -> thunks.(0) ()
  | n ->
    let spawned = Array.init (n - 1) (fun i -> Domain.spawn thunks.(i + 1)) in
    thunks.(0) ();
    Array.iter Domain.join spawned

(* Contiguous static partition: worker [k] of [w] owns indices
   [k*n/w .. (k+1)*n/w - 1].  Independent of timing, so the work an
   index runs next to never changes between runs. *)
let block ~n ~workers k =
  let lo = k * n / workers and hi = (k + 1) * n / workers in
  (lo, hi)

let m_parallel_calls = Obs.Metrics.counter "pool.parallel_calls"
let m_imbalance = Obs.Metrics.gauge "pool.imbalance"

(* Per-domain accounting, folded into the merged context after the
   workers join.  Registration is idempotent, so looking the handles up
   per call is fine (it is far off the hot path). *)
let record_domain_stats ~workers ~n ~busy_ns =
  let total = ref 0 and max_busy = ref 0 in
  for k = 0 to workers - 1 do
    let lo, hi = block ~n ~workers k in
    let label = string_of_int k in
    Obs.Metrics.incr ~by:(hi - lo)
      (Obs.Metrics.counter ~label "pool.tasks_per_domain");
    Obs.Metrics.incr ~by:busy_ns.(k) (Obs.Metrics.counter ~label "pool.busy_ns");
    total := !total + busy_ns.(k);
    if busy_ns.(k) > !max_busy then max_busy := busy_ns.(k)
  done;
  let mean = float_of_int !total /. float_of_int workers in
  let imbalance =
    if mean > 0. then float_of_int !max_busy /. mean else 1.
  in
  Obs.Metrics.set m_imbalance imbalance;
  Obs.Log.debug "pool.summary" ~fields:(fun () ->
      let busy_ms =
        String.concat ","
          (List.init workers (fun k ->
               Printf.sprintf "%.1f" (float_of_int busy_ns.(k) /. 1e6)))
      in
      [
        Obs.Log.int "workers" workers;
        Obs.Log.int "tasks" n;
        Obs.Log.str "busy_ms" busy_ms;
        Obs.Log.float "imbalance" imbalance;
      ])

let parallel_for t ~n body =
  if n <= 0 then ()
  else if t.jobs = 1 || n = 1 then
    for i = 0 to n - 1 do
      body i
    done
  else begin
    let workers = min t.jobs n in
    (* One error slot per worker, written only by its owner: no locks
       needed, and the post-join scan below is deterministic. *)
    let errors = Array.make workers None in
    let obs_on = Obs.enabled () in
    (* Each worker records metrics and spans into a private shard; the
       shards are merged below, in worker-index order, so instrumented
       totals are exact and deterministic. *)
    let shards =
      if obs_on then Array.init workers (fun _ -> Obs.Shard.create ())
      else [||]
    in
    let busy_ns = Array.make (if obs_on then workers else 1) 0 in
    let run_block k () =
      let lo, hi = block ~n ~workers k in
      let i = ref lo in
      while !i < hi && errors.(k) = None do
        (match body !i with
        | () -> ()
        | exception e ->
          errors.(k) <- Some (!i, e, Printexc.get_raw_backtrace ()));
        incr i
      done
    in
    let worker k () =
      if obs_on then
        (* with_shard also saves/restores the calling domain's context,
           which matters because worker 0 runs on the calling domain. *)
        Obs.Shard.with_shard shards.(k) (fun () ->
            let t0 = Obs.now_ns () in
            Fun.protect
              ~finally:(fun () -> busy_ns.(k) <- Obs.now_ns () - t0)
              (run_block k))
      else run_block k ()
    in
    run (Array.init workers worker);
    if obs_on then begin
      Array.iter Obs.Shard.merge shards;
      Obs.Metrics.incr m_parallel_calls;
      record_domain_stats ~workers ~n ~busy_ns
    end;
    (* Blocks are index-ordered, so the first recorded error is the one
       with the smallest failing item index. *)
    Array.iter
      (function
        | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors
  end

let parallel_map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for t ~n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let run_workers ~jobs body =
  if jobs < 1 then invalid_arg "Parallel.Pool.run_workers: jobs must be >= 1";
  run (Array.init jobs (fun k () -> body k))
