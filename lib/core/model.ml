open Numerics

type scheme = Ftcs | Crank_nicolson | Strang

type solution = {
  params : Params.t;
  pde : Pde.solution;
}

let problem_of params ~phi ~diffusion ~growth =
  {
    Pde.xl = params.Params.l;
    xr = params.Params.big_l;
    nx = 101;
    diffusion;
    reaction =
      Pde.Custom
        (fun ~x ~t ~u -> growth ~x ~t *. u *. (1. -. (u /. params.Params.k)));
    initial = Initial.to_function phi;
    t0 = 1.;
  }

let check_times times =
  if Array.exists (fun t -> t < 1.) times then
    invalid_arg "Model.solve: observation times start at t = 1"

(* The DL reaction as the solver's specialised shape: evaluates as
   exactly [r(t) u (1 - u/K)], same bits as the closure [problem_of]
   builds, but unboxed on the panel path. *)
let dl_reaction params =
  Pde.Logistic
    { r = Growth.eval params.Params.r; k = params.Params.k }

let panel_story_of params ~phi =
  {
    Pde.ps_diffusion = (fun _ -> params.Params.d);
    ps_reaction = dl_reaction params;
    ps_initial = Initial.to_function phi;
  }

let panel_scheme_of = function
  | Ftcs -> None
  | Crank_nicolson -> Some (Pde.Panel_imex 0.5)
  | Strang -> Some Pde.Panel_strang

let solve ?(scheme = Strang) ?(nx = 101) ?(dt = 0.01) ?workspace params ~phi
    ~times =
  check_times times;
  match panel_scheme_of scheme with
  | Some ps ->
    (* Strang and Crank--Nicolson run the fused kernel at width 1: on the
       caller's workspace (its buffers survive across calls — one per
       fit restart), or on private buffers counted as a plain solve. *)
    let pp =
      {
        Pde.pp_xl = params.Params.l;
        pp_xr = params.Params.big_l;
        pp_nx = nx;
        pp_t0 = 1.;
        pp_stories = [| panel_story_of params ~phi |];
      }
    in
    let pde =
      match workspace with
      | Some ws -> (Pde.solve_panel ~scheme:ps ~dt ~workspace:ws pp ~times).(0)
      | None -> Pde.solve_story ~scheme:ps ~dt pp ~times
    in
    { params; pde }
  | None ->
    (* FTCS sub-steps below each story's CFL limit: scalar solver *)
    let p =
      {
        Pde.xl = params.Params.l;
        xr = params.Params.big_l;
        nx;
        diffusion = (fun _ -> params.Params.d);
        reaction = dl_reaction params;
        initial = Initial.to_function phi;
        t0 = 1.;
      }
    in
    { params; pde = Pde.solve ~scheme:Pde.Ftcs ~dt p ~times }

let solve_panel ?(scheme = Strang) ?(nx = 101) ?(dt = 0.01) ?workspace stories
    ~times =
  check_times times;
  if Array.length stories = 0 then [||]
  else begin
    let p0, _ = stories.(0) in
    let l0 = p0.Params.l and bl0 = p0.Params.big_l in
    Array.iter
      (fun (p, _) ->
        if p.Params.l <> l0 || p.Params.big_l <> bl0 then
          invalid_arg "Model.solve_panel: stories must share the domain (l, L)")
      stories;
    match panel_scheme_of scheme with
    | None ->
      (* FTCS: per-story CFL forbids lockstep; fall back story by story. *)
      Array.map (fun (p, phi) -> solve ~scheme ~nx ~dt p ~phi ~times) stories
    | Some ps ->
      let pp =
        {
          Pde.pp_xl = l0;
          pp_xr = bl0;
          pp_nx = nx;
          pp_t0 = 1.;
          pp_stories =
            Array.map (fun (p, phi) -> panel_story_of p ~phi) stories;
        }
      in
      let sols = Pde.solve_panel ~scheme:ps ~dt ?workspace pp ~times in
      Array.mapi (fun i (p, _) -> { params = p; pde = sols.(i) }) stories
  end

let solve_extended ?(scheme = Crank_nicolson) ?(nx = 101) ?(dt = 0.01) params
    ~diffusion ~growth ~phi ~times =
  check_times times;
  let p = { (problem_of params ~phi ~diffusion ~growth) with Pde.nx } in
  let pde_scheme =
    match scheme with
    | Ftcs -> Pde.Ftcs
    | Crank_nicolson | Strang -> Pde.Imex 0.5
  in
  { params; pde = Pde.solve ~scheme:pde_scheme ~dt p ~times }

let predict sol ~x ~t = Pde.eval sol.pde ~x ~t
let predictor sol = Pde.evaluator sol.pde

let predict_profile sol ~t =
  let snap = Pde.snapshot sol.pde ~t in
  Array.mapi (fun i x -> (x, snap.(i))) sol.pde.Pde.xs

let predict_at_distances sol ~distances ~t =
  Array.map (fun x -> predict sol ~x:(float_of_int x) ~t) distances
