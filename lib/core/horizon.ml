type point = { train_until : float; horizon : float; accuracy : float }

(* Round, not truncate: a training window of 9.9 h means "trained
   through t = 10", not silently through t = 9.  Windows that round
   below 2 cannot provide a single fitting hour (t = 1 is reserved for
   phi), so they are a caller error, not an empty curve. *)
let fit_hours ~train_until =
  let last = int_of_float (Float.round train_until) in
  if last < 2 then
    invalid_arg
      (Printf.sprintf
         "Horizon.fit_hours: train_until = %g is too small (need at least \
          2 observed hours; t = 1 provides the initial condition)"
         train_until);
  Array.init (last - 1) (fun i -> float_of_int (i + 2))

let curve ?(config = Fit.default_config) rng (obs : Socialnet.Density.t)
    ~train_untils ~horizons =
  let phi = Fit.phi_of_obs obs in
  let points = ref [] in
  Array.iter
    (fun train_until ->
      let fit_times = fit_hours ~train_until in
      let result = Fit.fit ~config:{ config with Fit.fit_times } ~phi rng obs in
      Array.iter
        (fun horizon ->
          let t = train_until +. horizon in
          let accuracy =
            (* Only the failures a point can legitimately produce are
               mapped to nan: a solver blow-up (Failure), a domain error
               (Invalid_argument) or an unrecorded evaluation time
               (Not_found from Density.at).  Anything else — notably
               Out_of_memory or Stack_overflow — propagates. *)
            match
              let sol = Model.solve result.Fit.params ~phi ~times:[| t |] in
              let table =
                Accuracy.table
                  ~predict:(fun ~x ~t ->
                    Model.predict sol ~x:(float_of_int x) ~t)
                  ~actual:(fun ~x ~t ->
                    Socialnet.Density.at obs ~distance:x ~time:t)
                  ~distances:obs.Socialnet.Density.distances ~times:[| t |]
              in
              table.Accuracy.overall_average
            with
            | v -> v
            | exception ((Failure _ | Invalid_argument _ | Not_found) as e) ->
              Obs.Log.warn "horizon.point_undefined" ~fields:(fun () ->
                  [
                    Obs.Log.float "train_until" train_until;
                    Obs.Log.float "horizon" horizon;
                    Obs.Log.float "t" t;
                    Obs.Log.str "exn" (Printexc.to_string e);
                  ]);
              nan
          in
          points := { train_until; horizon; accuracy } :: !points)
        horizons)
    train_untils;
  Array.of_list (List.rev !points)

let pp ppf points =
  Format.fprintf ppf "@[<v>train\\horizon";
  Array.iter
    (fun p ->
      Format.fprintf ppf "@,  train<=%g h, +%g h ahead: %s" p.train_until
        p.horizon
        (if Float.is_nan p.accuracy then "-"
         else Printf.sprintf "%.2f%%" (100. *. p.accuracy)))
    points;
  Format.fprintf ppf "@]"
