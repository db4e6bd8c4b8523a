type result = {
  x : float array;
  f : float;
  iterations : int;
  converged : bool;
  evaluations : int;
  spread : float;
}

let m_nm_runs = Obs.Metrics.counter "optimize.nm_runs"
let m_nm_iterations = Obs.Metrics.counter "optimize.nm_iterations"
let m_nm_evals = Obs.Metrics.counter "optimize.nm_evals"

let nelder_mead ?(tol = 1e-9) ?(max_iter = 2000) ?(step = 0.) ?simplex f ~x0 =
  let n = Array.length x0 in
  assert (n >= 1);
  (match simplex with
  | None -> ()
  | Some vs ->
      if Array.length vs <> n + 1 then
        invalid_arg "Optimize.nelder_mead: simplex needs n+1 vertices";
      Array.iter
        (fun v ->
          if Array.length v <> n then
            invalid_arg "Optimize.nelder_mead: simplex vertex dimension")
        vs);
  let evals = ref 0 in
  let f v =
    incr evals;
    f v
  in
  let alpha = 1. and gamma = 2. and rho = 0.5 and sigma = 0.5 in
  let initial_step i =
    if step > 0. then step
    else Float.max 0.05 (0.1 *. Float.abs x0.(i))
  in
  (* simplex: n+1 vertices with objective values, kept sorted.  An
     explicit [simplex] (e.g. a warm start carried over from a prior
     fit) replaces the default axis-aligned one built around [x0]. *)
  let vertices =
    match simplex with
    | Some vs -> Array.map (fun v -> (Array.copy v, f v)) vs
    | None ->
        Array.init (n + 1) (fun k ->
            let v = Array.copy x0 in
            if k > 0 then v.(k - 1) <- v.(k - 1) +. initial_step (k - 1);
            (v, f v))
  in
  let sort () =
    Array.sort (fun (_, fa) (_, fb) -> Float.compare fa fb) vertices
  in
  sort ();
  let centroid () =
    let c = Array.make n 0. in
    for k = 0 to n - 1 do
      let v, _ = vertices.(k) in
      for i = 0 to n - 1 do
        c.(i) <- c.(i) +. (v.(i) /. float_of_int n)
      done
    done;
    c
  in
  let combine c v coef =
    Array.init n (fun i -> c.(i) +. (coef *. (v.(i) -. c.(i))))
  in
  (* Convergence needs both a small objective spread and a small
     simplex: an f-spread test alone stops early on simplices that
     straddle the minimum symmetrically. *)
  let diameter () =
    let best, _ = vertices.(0) in
    Array.fold_left
      (fun acc (v, _) -> Float.max acc (Vec.dist2 v best))
      0. vertices
  in
  let x_tol = Float.max 1e-8 (sqrt tol) in
  let iter = ref 0 and converged = ref false in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let _, f_best = vertices.(0) and _, f_worst = vertices.(n) in
    if Float.abs (f_worst -. f_best) <= tol && diameter () <= x_tol then
      converged := true
    else begin
      let c = centroid () in
      let worst, fw = vertices.(n) in
      let _, f_second = vertices.(n - 1) in
      let reflected = combine c worst (-.alpha) in
      let fr = f reflected in
      if fr < f_best then begin
        let expanded = combine c worst (-.gamma) in
        let fe = f expanded in
        vertices.(n) <- (if fe < fr then (expanded, fe) else (reflected, fr))
      end
      else if fr < f_second then vertices.(n) <- (reflected, fr)
      else begin
        let contracted =
          if fr < fw then combine c reflected rho else combine c worst rho
        in
        let fc = f contracted in
        if fc < Float.min fr fw then vertices.(n) <- (contracted, fc)
        else begin
          (* Shrink towards the best vertex. *)
          let best, _ = vertices.(0) in
          for k = 1 to n do
            let v, _ = vertices.(k) in
            let shrunk =
              Array.init n (fun i -> best.(i) +. (sigma *. (v.(i) -. best.(i))))
            in
            vertices.(k) <- (shrunk, f shrunk)
          done
        end
      end;
      sort ()
    end
  done;
  let best, fbest = vertices.(0) in
  Obs.Metrics.incr m_nm_runs;
  Obs.Metrics.incr ~by:!iter m_nm_iterations;
  Obs.Metrics.incr ~by:!evals m_nm_evals;
  {
    x = best;
    f = fbest;
    iterations = !iter;
    converged = !converged;
    evaluations = !evals;
    spread = diameter ();
  }
