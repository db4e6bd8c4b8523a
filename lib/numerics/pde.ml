(* The reaction term, specialised by shape.  [Logistic]/[Linear] name
   the paper's two models directly so hot loops can dispatch once per
   solve and run unboxed float arithmetic per cell; [Custom] keeps the
   fully general closure (floats box at every call — the per-cell
   closure-call floor the panel path removes for the named shapes).
   [reaction_eval] is the single semantics: the scalar stepper and the
   panel kernel both compute exactly its floating-point expressions.
   [integral a b] is the integral of [r] over [a, b], which the exact
   Strang flows need. *)
type reaction =
  | Logistic of {
      r : float -> float;
      integral : float -> float -> float;
      k : float;
    }
  | Linear of { r : float -> float; integral : float -> float -> float }
  | Custom of (x:float -> t:float -> u:float -> float)

let reaction_eval re ~x ~t ~u =
  match re with
  | Logistic { r; k; _ } -> r t *. u *. (1. -. (u /. k))
  | Linear { r; _ } -> r t *. u
  | Custom f -> f ~x ~t ~u

type problem = {
  xl : float;
  xr : float;
  nx : int;
  diffusion : float -> float;
  reaction : reaction;
  initial : float -> float;
  t0 : float;
}

type reaction_step = x:float -> t:float -> dt:float -> u:float -> float

type scheme = Ftcs | Imex of float | Strang of reaction_step

type solution = {
  xs : float array;
  ts : float array;
  values : float array array;
}

let grid p =
  assert (p.nx >= 3 && p.xr > p.xl);
  Vec.linspace p.xl p.xr p.nx

let dx p = (p.xr -. p.xl) /. float_of_int (p.nx - 1)

(* Face diffusivities d_{i+1/2}, arithmetic mean of node values. *)
let face_diffusion p xs =
  Array.init (p.nx - 1) (fun i ->
      (p.diffusion xs.(i) +. p.diffusion xs.(i + 1)) /. 2.)

(* CFL bound from an already-built grid, so [solve] (which owns one)
   never rebuilds it just to size the FTCS step. *)
let cfl_of p xs =
  let dmax =
    Array.fold_left (fun acc x -> Float.max acc (p.diffusion x)) 0. xs
  in
  let h = dx p in
  if dmax <= 0. then infinity else h *. h /. (2. *. dmax)

let cfl_limit p = cfl_of p (grid p)

(* Finite-volume discretisation of (d u_x)_x with zero-flux faces:
   (L u)_i = (F_{i+1/2} - F_{i-1/2}) / (h c_i),  F = d (u_{i+1} - u_i)/h,
   where boundary cells have half volume (c = 1/2).  Equivalent to the
   second-order mirrored-ghost stencil at the boundaries, and it makes
   the trapezoid integral of u an exact invariant of pure diffusion. *)
let cell_weight n i = if i = 0 || i = n - 1 then 0.5 else 1.

(* Tridiagonal representation of L (the stencil FTCS applies cell by
   cell in [step]). *)
let operator_tridiag p df =
  let n = p.nx in
  let h2 = dx p ** 2. in
  let sub = Array.make (n - 1) 0.
  and diag = Array.make n 0.
  and sup = Array.make (n - 1) 0. in
  for i = 0 to n - 1 do
    let h2i = h2 *. cell_weight n i in
    let dr = if i = n - 1 then 0. else df.(i) /. h2i in
    let dl = if i = 0 then 0. else df.(i - 1) /. h2i in
    diag.(i) <- -.(dr +. dl);
    if i < n - 1 then sup.(i) <- dr;
    if i > 0 then sub.(i - 1) <- dl
  done;
  Tridiag.make ~sub ~diag ~sup

(* (I + c L) as a tridiagonal matrix. *)
let shifted c l =
  let n = Array.length l.Tridiag.diag in
  Tridiag.make
    ~sub:(Array.map (fun v -> c *. v) l.Tridiag.sub)
    ~diag:(Array.init n (fun i -> 1. +. (c *. l.Tridiag.diag.(i))))
    ~sup:(Array.map (fun v -> c *. v) l.Tridiag.sup)

let logistic_reaction_step ~integral ~k : reaction_step =
  fun ~x:_ ~t ~dt ~u ->
    if u = 0. then 0.
    else
      let i = integral t (t +. dt) in
      Ode.logistic_varying_r ~r_integral:(fun _ -> i) ~k ~n0:u dt

(* Exact flow of u' = r(t) u: u e^{int r}. *)
let linear_reaction_step ~integral : reaction_step =
  fun ~x:_ ~t ~dt ~u -> if u = 0. then 0. else u *. exp (integral t (t +. dt))

(* Second-order (Heun) increment of the reaction term over [t, t+dt]. *)
let reaction_rk2 p xs t dt u =
  Array.mapi
    (fun i ui ->
      let x = xs.(i) in
      let k1 = reaction_eval p.reaction ~x ~t ~u:ui in
      let k2 = reaction_eval p.reaction ~x ~t:(t +. dt) ~u:(ui +. (dt *. k1)) in
      dt *. (k1 +. k2) /. 2.)
    u

(* The schedule every time loop marches: a step [dt > 0] and finite
   snapshot times, each no earlier than [t0] or the one before (to the
   loops' 1e-12 snap tolerance).  A NaN target compares false against
   every bound, so the loops would record the current state unstepped;
   +inf would never be reached. *)
let check_schedule fn ~dt ~t0 times =
  if not (dt > 0.) then invalid_arg (fn ^ ": dt must be > 0");
  for k = 0 to Array.length times - 1 do
    let prev = if k = 0 then t0 else times.(k - 1) in
    if not (Float.is_finite times.(k)) then
      invalid_arg (fn ^ ": times must be finite");
    if times.(k) < prev -. 1e-12 then
      invalid_arg (fn ^ ": times must be increasing and >= t0")
  done

(* [grid]'s precondition as an error rather than an assertion: the
   panel sweeps peel a first and a last row around at least one
   interior row and read every neighbour without bounds checks. *)
let check_grid fn ~nx ~xl ~xr =
  if nx < 3 then invalid_arg (fn ^ ": nx must be >= 3");
  if not (xl < xr) then invalid_arg (fn ^ ": xl must be < xr")

(* One macro time step of size dt, dispatching on the scheme.  For
   FTCS the caller has already split dt below the CFL limit.

   This is the scalar stepper.  Its Imex and Strang arms allocate fresh
   arrays and operators every step, exactly as the original solver did:
   they are the oracle the fused panel kernel below must reproduce bit
   for bit (same floating-point operations in the same order), which
   [test/test_pde_perf.ml] enforces per cell.  Do not "optimise" them.
   FTCS runs only here (its CFL-bounded step keeps stories from
   marching in lockstep), as one loop over the cells writing a fresh
   state: the operator L u over the hoisted [h2w] = dx^2 * cell weight,
   the Heun (RK2) reaction increment, then their sum. *)
let step p xs df l h2w scheme t dt u =
  match scheme with
  | Ftcs ->
    let n = p.nx in
    let next = Array.create_float n in
    for i = 0 to n - 1 do
      let flux_right = if i = n - 1 then 0. else df.(i) *. (u.(i + 1) -. u.(i)) in
      let flux_left = if i = 0 then 0. else df.(i - 1) *. (u.(i) -. u.(i - 1)) in
      let lu = (flux_right -. flux_left) /. h2w.(i) in
      let x = xs.(i) in
      let ui = u.(i) in
      let k1 = reaction_eval p.reaction ~x ~t ~u:ui in
      let k2 = reaction_eval p.reaction ~x ~t:(t +. dt) ~u:(ui +. (dt *. k1)) in
      next.(i) <- ui +. (dt *. lu) +. (dt *. (k1 +. k2) /. 2.)
    done;
    next
  | Imex theta ->
    (* (I - theta dt L) u' = (I + (1-theta) dt L) u + RK2 reaction *)
    let explicit = Tridiag.mv (shifted ((1. -. theta) *. dt) l) u in
    let dr = reaction_rk2 p xs t dt u in
    let rhs = Array.mapi (fun i v -> v +. dr.(i)) explicit in
    Tridiag.solve (shifted (-.(theta *. dt)) l) rhs
  | Strang react ->
    let half = dt /. 2. in
    let u1 = Array.mapi (fun i ui -> react ~x:xs.(i) ~t ~dt:half ~u:ui) u in
    (* Crank--Nicolson diffusion over the full step. *)
    let explicit = Tridiag.mv (shifted (dt /. 2.) l) u1 in
    let u2 = Tridiag.solve (shifted (-.(dt /. 2.)) l) explicit in
    Array.mapi
      (fun i ui -> react ~x:xs.(i) ~t:(t +. half) ~dt:half ~u:ui)
      u2

(* --- solver entry point ------------------------------------------ *)

let m_solves = Obs.Metrics.counter "pde.solves"
let m_steps = Obs.Metrics.counter "pde.steps"
let m_solve_ns = Obs.Metrics.histogram "pde.solve_ns"
let m_step_ns = Obs.Metrics.histogram "pde.step_ns"

let solve ?(scheme = Imex 0.5) ?(dt = 1e-3) p ~times =
  check_grid "Pde.solve" ~nx:p.nx ~xl:p.xl ~xr:p.xr;
  check_schedule "Pde.solve" ~dt ~t0:p.t0 times;
  (match scheme with
  | Imex theta ->
    if theta < 0.5 || theta > 1. then
      invalid_arg "Pde.solve: theta must be in [0.5, 1]"
  | Ftcs | Strang _ -> ());
  let xs = grid p in
  let df = face_diffusion p xs in
  let l = operator_tridiag p df in
  let h2 = dx p ** 2. in
  let h2w = Array.init p.nx (fun i -> h2 *. cell_weight p.nx i) in
  let dt_macro =
    match scheme with
    | Ftcs ->
      let cfl = cfl_of p xs in
      if Float.is_finite cfl then Float.min dt (0.9 *. cfl) else dt
    | Imex _ | Strang _ -> dt
  in
  (* Timing syscalls only happen when observability is on; the numeric
     path is untouched either way. *)
  let obs_on = Obs.enabled () in
  let solve_start = if obs_on then Obs.now_ns () else 0 in
  let steps = ref 0 in
  let u = ref (Array.map p.initial xs) and t = ref p.t0 in
  let advance step_dt = u := step p xs df l h2w scheme !t step_dt !u in
  let snapshots = ref [ (p.t0, Array.copy !u) ] in
  Array.iter
    (fun target ->
      while target -. !t > 1e-12 do
        let step_dt = Float.min dt_macro (target -. !t) in
        if obs_on then begin
          let t0 = Obs.now_ns () in
          advance step_dt;
          Obs.Metrics.observe m_step_ns (float_of_int (Obs.now_ns () - t0))
        end
        else advance step_dt;
        incr steps;
        t := !t +. step_dt
      done;
      t := target;
      snapshots := (target, Array.copy !u) :: !snapshots)
    times;
  if obs_on then begin
    Obs.Metrics.incr m_solves;
    Obs.Metrics.incr ~by:!steps m_steps;
    Obs.Metrics.observe m_solve_ns (float_of_int (Obs.now_ns () - solve_start))
  end;
  let snaps = Array.of_list (List.rev !snapshots) in
  {
    xs;
    ts = Array.map fst snaps;
    values = Array.map snd snaps;
  }

(* --- fused panel path -------------------------------------------- *)

(* A panel steps S problems sharing (domain, grid, t0, dt, scheme)
   through the time loop in lockstep.  Every per-cell buffer is one flat
   float array, cell [i] of story [s] at [i * ns + s], and each step is
   two passes over a story's cells: an ascending pass does the first
   half-reaction (IMEX: the whole RK2 reaction increment), the explicit
   Crank--Nicolson product and the forward Thomas sweep; a descending
   pass back-substitutes and applies the second half-reaction, writing
   the next state over the current one.  Strang sweeps one story after
   another at stride [ns]; IMEX runs both passes over all stories at
   once, stories innermost.  The x-independent per-step scalars (r(t),
   the reaction's integrals of r, their exponentials) are computed once
   per story, and the [Logistic]/[Linear] reactions run as unboxed
   float arithmetic.  Story [s] of the result is bit-identical to
   [solve] on story [s] alone: the sweeps fuse the scalar stepper's
   loops but perform each story's floating-point operations in the same
   order, and the hoisted scalars are exactly the values the scalar
   path computes per cell. *)

type panel_story = {
  ps_diffusion : float -> float;
  ps_reaction : reaction;
  ps_initial : float -> float;
}

type panel_problem = {
  pp_xl : float;
  pp_xr : float;
  pp_nx : int;
  pp_t0 : float;
  pp_stories : panel_story array;
}

type panel_scheme = Panel_imex of float | Panel_strang

let problem_of_story pp st =
  {
    xl = pp.pp_xl;
    xr = pp.pp_xr;
    nx = pp.pp_nx;
    t0 = pp.pp_t0;
    diffusion = st.ps_diffusion;
    reaction = st.ps_reaction;
    initial = st.ps_initial;
  }

(* Strang panels derive the exact reaction flow from the reaction
   shape (the scalar [Strang (logistic_reaction_step ...)] or
   [Strang (linear_reaction_step ...)] a story reproduces); a [Custom]
   closure carries no derivable flow, so it is rejected (use
   [Panel_imex], where the closure path applies, or the scalar [solve]
   with an explicit [Strang] step). *)
let strang_needs_flow () =
  invalid_arg "Pde.solve_panel: Strang panels need a Logistic or Linear reaction"

(* All the flat buffers for one (nx, stories) shape.  Only the
   allocations survive across solves; [pb_ops_dt] records the step size
   the shifted operators and factorization currently hold (NaN = none),
   so a ragged final partial step refills them and the next full step
   restores the macro ones. *)
type panel_bufs = {
  pb_nx : int;
  pb_ns : int;
  pb_u : float array;  (* state: each step writes the next one over it *)
  pb_d : float array;  (* forward-sweep values d' *)
  (* the FV operator L; sub/sup use rows 0 .. nx-2 *)
  pb_l_sub : float array;
  pb_l_diag : float array;
  pb_l_sup : float array;
  (* explicit (I + cE L) *)
  pb_e_sub : float array;
  pb_e_diag : float array;
  pb_e_sup : float array;
  (* implicit (I + cI L): sub-diagonal, swept super-diagonal c', pivots *)
  pb_i_sub : float array;
  pb_c : float array;
  pb_m : float array;
  mutable pb_ops_dt : float;
  (* per-story step scalars: reaction shape (0 logistic, 1 linear,
     2 custom), K, and r(t)/r(t+dt) (IMEX) or the two half-step flow
     factors (Strang) *)
  pb_tag : int array;
  pb_k : float array;
  pb_f1 : float array;
  pb_f2 : float array;
}

let make_panel_bufs ~nx ~ns =
  let p () = Array.make (nx * ns) 0. in
  {
    pb_nx = nx;
    pb_ns = ns;
    pb_u = p ();
    pb_d = p ();
    pb_l_sub = p ();
    pb_l_diag = p ();
    pb_l_sup = p ();
    pb_e_sub = p ();
    pb_e_diag = p ();
    pb_e_sup = p ();
    pb_i_sub = p ();
    pb_c = p ();
    pb_m = p ();
    pb_ops_dt = Float.nan;
    pb_tag = Array.make ns 0;
    pb_k = Array.make ns 1.;
    pb_f1 = Array.make ns 0.;
    pb_f2 = Array.make ns 0.;
  }

(* A reusable panel workspace: keeps the buffer block alive across
   solves (one per fit restart / pool worker — at any instant a single
   domain owns it; do not share concurrently).  Shape changes
   reallocate. *)
type panel_workspace = {
  mutable pw_bufs : panel_bufs option;
  mutable pw_reuses : int;
  mutable pw_rebuilds : int;
}

let panel_workspace () = { pw_bufs = None; pw_reuses = 0; pw_rebuilds = 0 }

let panel_workspace_stats ws = (ws.pw_reuses, ws.pw_rebuilds)

let m_panel_solves = Obs.Metrics.counter "pde.panel_solves"
let m_panel_stories = Obs.Metrics.counter "pde.panel_stories"
let m_panel_steps = Obs.Metrics.counter "pde.panel_steps"
let m_panel_reuses = Obs.Metrics.counter "pde.panel_reuses"
let m_panel_rebuilds = Obs.Metrics.counter "pde.panel_rebuilds"
let m_panel_solve_ns = Obs.Metrics.histogram "pde.panel_solve_ns"

let ensure_panel_bufs ws ~nx ~ns =
  match ws.pw_bufs with
  | Some b when b.pb_nx = nx && b.pb_ns = ns ->
    ws.pw_reuses <- ws.pw_reuses + 1;
    if Obs.enabled () then Obs.Metrics.incr m_panel_reuses;
    b.pb_ops_dt <- Float.nan;
    b
  | _ ->
    let b = make_panel_bufs ~nx ~ns in
    ws.pw_bufs <- Some b;
    ws.pw_rebuilds <- ws.pw_rebuilds + 1;
    if Obs.enabled () then Obs.Metrics.incr m_panel_rebuilds;
    b

(* Unchecked access for the step loops: every index is [i * ns + s]
   with [i < nx] and [s < ns], inside buffers of [nx * ns] cells. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

(* Story [s]'s FV operator L, initial state and reaction shape, written
   straight into the flat buffers with [face_diffusion] and
   [operator_tridiag]'s expressions (same bits, no per-solve arrays).
   A resumed one-story solve takes its state from [state] instead of
   the initial profile. *)
let load_story ?state b pp xs s st =
  let n = b.pb_nx and ns = b.pb_ns in
  let h2 = dx (problem_of_story pp st) ** 2. in
  (* face diffusivities d_{i-1/2} and d_{i+1/2} around cell [i] *)
  let left = ref 0. in
  for i = 0 to n - 1 do
    let j = (i * ns) + s in
    let right =
      if i = n - 1 then 0.
      else (st.ps_diffusion xs.(i) +. st.ps_diffusion xs.(i + 1)) /. 2.
    in
    let h2i = h2 *. cell_weight n i in
    let dr = if i = n - 1 then 0. else right /. h2i in
    let dl = if i = 0 then 0. else !left /. h2i in
    b.pb_l_diag.(j) <- -.(dr +. dl);
    if i < n - 1 then b.pb_l_sup.(j) <- dr;
    if i > 0 then b.pb_l_sub.(j - ns) <- dl;
    b.pb_u.(j) <-
      (match state with Some u -> u.(i) | None -> st.ps_initial xs.(i));
    left := right
  done;
  match st.ps_reaction with
  | Logistic { k; _ } ->
    b.pb_tag.(s) <- 0;
    b.pb_k.(s) <- k
  | Linear _ -> b.pb_tag.(s) <- 1
  | Custom _ -> b.pb_tag.(s) <- 2

(* Fill the shifted operators for step size [dt] and factorize the
   implicit one per story.  Coefficients replicate [shifted], and the
   pivot sweep is [Tridiag.factorize]'s with the implicit diagonal and
   super-diagonal formed on the fly, so the factors match the scalar
   ones bit for bit. *)
let panel_ops b scheme dt =
  if not (dt = b.pb_ops_dt) then begin
    let ce, ci =
      match scheme with
      | Panel_imex theta -> ((1. -. theta) *. dt, -.(theta *. dt))
      | Panel_strang -> (dt /. 2., -.(dt /. 2.))
    in
    let n = b.pb_nx and ns = b.pb_ns in
    for j = 0 to (n * ns) - 1 do
      b.pb_e_diag.(j) <- 1. +. (ce *. b.pb_l_diag.(j))
    done;
    for j = 0 to ((n - 1) * ns) - 1 do
      b.pb_e_sub.(j) <- ce *. b.pb_l_sub.(j);
      b.pb_e_sup.(j) <- ce *. b.pb_l_sup.(j);
      b.pb_i_sub.(j) <- ci *. b.pb_l_sub.(j)
    done;
    for s = 0 to ns - 1 do
      let pivot0 = 1. +. (ci *. b.pb_l_diag.(s)) in
      if Float.abs pivot0 < 1e-300 then raise Mat.Singular;
      b.pb_m.(s) <- pivot0;
      b.pb_c.(s) <- (ci *. b.pb_l_sup.(s)) /. pivot0
    done;
    for i = 1 to n - 1 do
      for s = 0 to ns - 1 do
        let j = (i * ns) + s in
        let mi =
          (1. +. (ci *. b.pb_l_diag.(j))) -. (b.pb_i_sub.(j - ns) *. b.pb_c.(j - ns))
        in
        if Float.abs mi < 1e-300 then raise Mat.Singular;
        b.pb_m.(j) <- mi;
        if i < n - 1 then b.pb_c.(j) <- (ci *. b.pb_l_sup.(j)) /. mi
      done
    done;
    b.pb_ops_dt <- dt
  end

(* Row [i] of the explicit (I + cE L) applied to [v], at cell [j],
   accumulated in [Tridiag.mv]'s order. *)
let[@inline] explicit b v ~n ~ns i j =
  let acc = b.pb_e_diag.!(j) *. v.!(j) in
  let acc = if i > 0 then acc +. (b.pb_e_sub.!(j - ns) *. v.!(j - ns)) else acc in
  if i < n - 1 then acc +. (b.pb_e_sup.!(j) *. v.!(j + ns)) else acc

(* The forward Thomas sweep's d' for row [i], as [Tridiag.solve_factored]. *)
let[@inline] forward b ~ns i j rhs =
  let d = b.pb_d in
  d.!(j) <-
    (if i = 0 then rhs /. b.pb_m.!(j)
     else (rhs -. (b.pb_i_sub.!(j - ns) *. d.!(j - ns))) /. b.pb_m.!(j))

(* One IMEX step: rhs = (I + cE L) u + the RK2 (Heun) reaction
   increment, then (I + cI L) u' = rhs.  r(t) and r(t+dt) are hoisted
   per story (identical floats: r is a pure function of t). *)
let imex_step b stories xs t dt =
  let n = b.pb_nx and ns = b.pb_ns in
  let u = b.pb_u and d = b.pb_d in
  for s = 0 to ns - 1 do
    match stories.(s).ps_reaction with
    | Logistic { r; _ } | Linear { r; _ } ->
      b.pb_f1.(s) <- r t;
      b.pb_f2.(s) <- r (t +. dt)
    | Custom _ -> ()
  done;
  for i = 0 to n - 1 do
    for s = 0 to ns - 1 do
      let j = (i * ns) + s in
      let ui = u.!(j) in
      let tag = b.pb_tag.(s) in
      let dr =
        if tag = 0 then begin
          (* [reaction_eval]'s Logistic arm *)
          let k = b.pb_k.!(s) in
          let k1 = b.pb_f1.!(s) *. ui *. (1. -. (ui /. k)) in
          let u2 = ui +. (dt *. k1) in
          let k2 = b.pb_f2.!(s) *. u2 *. (1. -. (u2 /. k)) in
          dt *. (k1 +. k2) /. 2.
        end
        else if tag = 1 then begin
          let k1 = b.pb_f1.!(s) *. ui in
          let k2 = b.pb_f2.!(s) *. (ui +. (dt *. k1)) in
          dt *. (k1 +. k2) /. 2.
        end
        else begin
          let f =
            match stories.(s).ps_reaction with
            | Custom f -> f
            | Logistic _ | Linear _ -> assert false
          in
          let x = xs.(i) in
          let k1 = f ~x ~t ~u:ui in
          let k2 = f ~x ~t:(t +. dt) ~u:(ui +. (dt *. k1)) in
          dt *. (k1 +. k2) /. 2.
        end
      in
      forward b ~ns i j (explicit b u ~n ~ns i j +. dr)
    done
  done;
  (* back-substitution straight into the state *)
  for s = 0 to ns - 1 do
    let j = ((n - 1) * ns) + s in
    u.!(j) <- d.!(j)
  done;
  for i = n - 2 downto 0 do
    for s = 0 to ns - 1 do
      let j = (i * ns) + s in
      u.!(j) <- d.!(j) -. (b.pb_c.!(j) *. u.!(j + ns))
    done
  done

(* The exact half-step reaction flow of a cell holding [u], with the
   story's x-independent factor [f] hoisted: exp(-∫r) for the logistic
   shape (the closed form of [Ode.logistic_varying_r]), exp(∫r) for the
   linear one.  Inlined into the sweep, whose locals [k] and [f] stay
   unboxed. *)
let[@inline] flow ~logistic ~k ~f u =
  if u = 0. then 0.
  else if logistic then k /. (1. +. (((k /. u) -. 1.) *. f))
  else u *. f

(* One Strang step: half reaction at t, Crank--Nicolson diffusion over
   the full step, half reaction at t + dt/2, swept one story after
   another over the story's cells [s], [s + ns], ...  The story's
   reaction shape, K and flow factors are read once into locals (as
   float arguments of a sweep function they would be boxed).  The
   ascending pass reacts cell [i + 1] before row [i]'s explicit product
   needs it, keeping the three half-reacted cells that product reads in
   locals, and stores the forward Thomas values in [pb_d]; the
   descending pass back-substitutes, carrying the solved cell below in
   a local, and reacts each cell into the state as soon as it is
   solved.  The first and last rows are peeled (a grid has at least
   three nodes), so the interior rows take no boundary branch. *)
let strang_step b stories t dt =
  let n = b.pb_nx and ns = b.pb_ns in
  let u = b.pb_u and d = b.pb_d in
  let e_sub = b.pb_e_sub and e_diag = b.pb_e_diag and e_sup = b.pb_e_sup in
  let i_sub = b.pb_i_sub and c = b.pb_c and m = b.pb_m in
  let half = dt /. 2. in
  let t2 = t +. half in
  for s = 0 to ns - 1 do
    (* the integrals the scalar step's flow computes in every cell *)
    match stories.(s).ps_reaction with
    | Logistic { integral; _ } ->
      b.pb_f1.(s) <- exp (-.integral t (t +. half));
      b.pb_f2.(s) <- exp (-.integral t2 (t2 +. half))
    | Linear { integral; _ } ->
      b.pb_f1.(s) <- exp (integral t (t +. half));
      b.pb_f2.(s) <- exp (integral t2 (t2 +. half))
    | Custom _ -> strang_needs_flow ()
  done;
  for s = 0 to ns - 1 do
    let logistic = b.pb_tag.(s) = 0 in
    let k = b.pb_k.(s) and f1 = b.pb_f1.(s) and f2 = b.pb_f2.(s) in
    (* rows i - 1, i and i + 1 of the half-reacted stage *)
    let below = ref (flow ~logistic ~k ~f:f1 u.!(s)) in
    let here = ref (flow ~logistic ~k ~f:f1 u.!(s + ns)) in
    (* the explicit products accumulate in [Tridiag.mv]'s order and the
       forward values follow [Tridiag.solve_factored] *)
    let dp = ref (((e_diag.!(s) *. !below) +. (e_sup.!(s) *. !here)) /. m.!(s)) in
    d.!(s) <- !dp;
    for i = 1 to n - 2 do
      let j = (i * ns) + s in
      let above = flow ~logistic ~k ~f:f1 u.!(j + ns) in
      let rhs =
        (e_diag.!(j) *. !here) +. (e_sub.!(j - ns) *. !below) +. (e_sup.!(j) *. above)
      in
      dp := (rhs -. (i_sub.!(j - ns) *. !dp)) /. m.!(j);
      d.!(j) <- !dp;
      below := !here;
      here := above
    done;
    let j = ((n - 1) * ns) + s in
    let rhs = (e_diag.!(j) *. !here) +. (e_sub.!(j - ns) *. !below) in
    let x = ref ((rhs -. (i_sub.!(j - ns) *. !dp)) /. m.!(j)) in
    u.!(j) <- flow ~logistic ~k ~f:f2 !x;
    for i = n - 2 downto 0 do
      let j = (i * ns) + s in
      x := d.!(j) -. (c.!(j) *. !x);
      u.!(j) <- flow ~logistic ~k ~f:f2 !x
    done
  done

let step_panel b stories xs scheme t dt =
  panel_ops b scheme dt;
  match scheme with
  | Panel_imex _ -> imex_step b stories xs t dt
  | Panel_strang -> strang_step b stories t dt

(* The one fused path.  [plain] picks the telemetry: a one-story solve
   on private buffers counts as a plain solve ([pde.solves],
   [pde.steps], [pde.solve_ns], [pde.step_ns], like [solve]); anything
   else counts in the [pde.panel_*] series.  [from] (one story only)
   starts the clock and the state at a recorded snapshot instead of
   [pp_t0] and the initial profile. *)
let solve_fused ~plain ?from b scheme dt pp ~times =
  let obs_on = Obs.enabled () in
  let solve_start = if obs_on then Obs.now_ns () else 0 in
  let stories = pp.pp_stories in
  let ns = Array.length stories in
  let nx = pp.pp_nx in
  (* one grid per panel: every story shares (xl, xr, nx) *)
  let xs = grid (problem_of_story pp stories.(0)) in
  let t_start, state =
    match from with Some (t0, u) -> (t0, Some u) | None -> (pp.pp_t0, None)
  in
  Array.iteri (load_story ?state b pp xs) stories;
  let nt = Array.length times + 1 in
  let ts = Array.make nt t_start in
  let values = Array.init ns (fun _ -> Array.make nt [||]) in
  let record k =
    for s = 0 to ns - 1 do
      values.(s).(k) <- Array.init nx (fun i -> b.pb_u.((i * ns) + s))
    done
  in
  record 0;
  let steps = ref 0 in
  let t = ref t_start in
  Array.iteri
    (fun k target ->
      while target -. !t > 1e-12 do
        let step_dt = Float.min dt (target -. !t) in
        if plain && obs_on then begin
          let t0 = Obs.now_ns () in
          step_panel b stories xs scheme !t step_dt;
          Obs.Metrics.observe m_step_ns (float_of_int (Obs.now_ns () - t0))
        end
        else step_panel b stories xs scheme !t step_dt;
        incr steps;
        t := !t +. step_dt
      done;
      t := target;
      ts.(k + 1) <- target;
      record (k + 1))
    times;
  if obs_on then begin
    let elapsed = float_of_int (Obs.now_ns () - solve_start) in
    if plain then begin
      Obs.Metrics.incr m_solves;
      Obs.Metrics.incr ~by:!steps m_steps;
      Obs.Metrics.observe m_solve_ns elapsed
    end
    else begin
      Obs.Metrics.incr m_panel_solves;
      Obs.Metrics.incr ~by:ns m_panel_stories;
      Obs.Metrics.incr ~by:!steps m_panel_steps;
      Obs.Metrics.observe m_panel_solve_ns elapsed
    end
  end;
  Array.map (fun v -> { xs; ts; values = v }) values

let validate_panel fn scheme dt pp ~t0 ~times =
  check_grid fn ~nx:pp.pp_nx ~xl:pp.pp_xl ~xr:pp.pp_xr;
  check_schedule fn ~dt ~t0 times;
  match scheme with
  | Panel_imex theta ->
    if theta < 0.5 || theta > 1. then
      invalid_arg (fn ^ ": theta must be in [0.5, 1]")
  | Panel_strang ->
    Array.iter
      (fun st -> match st.ps_reaction with Custom _ -> strang_needs_flow () | _ -> ())
      pp.pp_stories

let solve_panel ?(scheme = Panel_imex 0.5) ?(dt = 1e-3) ?workspace pp ~times =
  validate_panel "Pde.solve_panel" scheme dt pp ~t0:pp.pp_t0 ~times;
  if Array.length pp.pp_stories = 0 then [||]
  else begin
    let ws = match workspace with Some w -> w | None -> panel_workspace () in
    let b = ensure_panel_bufs ws ~nx:pp.pp_nx ~ns:(Array.length pp.pp_stories) in
    solve_fused ~plain:false b scheme dt pp ~times
  end

let solve_story ?(scheme = Panel_imex 0.5) ?(dt = 1e-3) ?from pp ~times =
  if Array.length pp.pp_stories <> 1 then
    invalid_arg "Pde.solve_story: the panel must hold exactly one story";
  let t0 =
    match from with
    | None -> pp.pp_t0
    | Some (t0, u) ->
      (* an infinite start would never reach a target *)
      if not (Float.is_finite t0) then
        invalid_arg "Pde.solve_story: the resume time must be finite";
      if Array.length u <> pp.pp_nx then
        invalid_arg "Pde.solve_story: the resume state must hold one value per grid node";
      t0
  in
  validate_panel "Pde.solve_story" scheme dt pp ~t0 ~times;
  (solve_fused ~plain:true ?from (make_panel_bufs ~nx:pp.pp_nx ~ns:1) scheme dt pp ~times).(0)

(* Top level, not per call: the old per-call [clampf] closure was an
   allocation on the prediction hot path. *)
let clampf lo hi v = Float.max lo (Float.min hi v)

(* values.(it).(ix): bilinear wants values.(ix).(it); transpose view
   via index juggling to avoid materialising.  A NaN query would sail
   through the clamps ([Float.min hi nan] is NaN) and turn the bracket
   search into garbage, so it is rejected up front. *)
let eval_core xs ts values nx nt x_lo x_hi t_lo t_hi ~x ~t =
  if Float.is_nan x || Float.is_nan t then
    invalid_arg
      (Printf.sprintf
         "Pde.eval: NaN input (x = %g, t = %g); clamping a NaN is \
          meaningless" x t);
  let x = clampf x_lo x_hi x in
  let t = clampf t_lo t_hi t in
  let i = if nx = 1 then 0 else Interp.bracket xs x in
  let j = if nt = 1 then 0 else Interp.bracket ts t in
  let i1 = Stdlib.min (i + 1) (nx - 1) and j1 = Stdlib.min (j + 1) (nt - 1) in
  let wx = if i1 = i then 0. else (x -. xs.(i)) /. (xs.(i1) -. xs.(i)) in
  (* two snapshots at one time (a schedule that repeats a time, or a
     resume recorded at its own start) weigh the earlier one *)
  let wt =
    if j1 = j || ts.(j1) = ts.(j) then 0. else (t -. ts.(j)) /. (ts.(j1) -. ts.(j))
  in
  ((1. -. wx) *. (1. -. wt) *. values.(j).(i))
  +. (wx *. (1. -. wt) *. values.(j).(i1))
  +. ((1. -. wx) *. wt *. values.(j1).(i))
  +. (wx *. wt *. values.(j1).(i1))

type stencil = {
  j : int;
  i : int;
  j1 : int;
  i1 : int;
  wx : float;
  w00 : float;
  w01 : float;
  w10 : float;
  w11 : float;
}

(* [eval_core]'s bracket and weights for one point, in its own
   expressions, for a caller that reads the point from many solutions
   of one grid and one schedule.  [eval_core] keeps its own copy: a
   record per point would be an allocation on the prediction hot path.
   The fit's scoring table is checked against [eval] bit for bit
   (test/test_qcheck_invariants.ml), which keeps the two in step. *)
let stencil ~xs ~ts ~x ~t =
  let nx = Array.length xs and nt = Array.length ts in
  if Float.is_nan x || Float.is_nan t then invalid_arg "Pde.stencil: NaN input";
  let x = clampf xs.(0) xs.(nx - 1) x in
  let t = clampf ts.(0) ts.(nt - 1) t in
  let i = if nx = 1 then 0 else Interp.bracket xs x in
  let j = if nt = 1 then 0 else Interp.bracket ts t in
  let i1 = Stdlib.min (i + 1) (nx - 1) and j1 = Stdlib.min (j + 1) (nt - 1) in
  let wx = if i1 = i then 0. else (x -. xs.(i)) /. (xs.(i1) -. xs.(i)) in
  let wt =
    if j1 = j || ts.(j1) = ts.(j) then 0. else (t -. ts.(j)) /. (ts.(j1) -. ts.(j))
  in
  {
    j;
    i;
    j1;
    i1;
    wx;
    w00 = (1. -. wx) *. (1. -. wt);
    w01 = wx *. (1. -. wt);
    w10 = (1. -. wx) *. wt;
    w11 = wx *. wt;
  }

let evaluator sol =
  let nt = Array.length sol.ts and nx = Array.length sol.xs in
  assert (nt >= 1 && nx >= 1);
  let xs = sol.xs and ts = sol.ts and values = sol.values in
  let x_lo = xs.(0) and x_hi = xs.(nx - 1) in
  let t_lo = ts.(0) and t_hi = ts.(nt - 1) in
  fun ~x ~t -> eval_core xs ts values nx nt x_lo x_hi t_lo t_hi ~x ~t

let eval sol ~x ~t =
  let nt = Array.length sol.ts and nx = Array.length sol.xs in
  assert (nt >= 1 && nx >= 1);
  eval_core sol.xs sol.ts sol.values nx nt sol.xs.(0)
    sol.xs.(nx - 1) sol.ts.(0) sol.ts.(nt - 1) ~x ~t

let snapshot sol ~t =
  let nt = Array.length sol.ts in
  let best = ref 0 in
  for j = 1 to nt - 1 do
    if Float.abs (sol.ts.(j) -. t) < Float.abs (sol.ts.(!best) -. t) then
      best := j
  done;
  Array.copy sol.values.(!best)

let mass sol ~it =
  Quadrature.trapezoid_sampled ~xs:sol.xs ~ys:sol.values.(it)
