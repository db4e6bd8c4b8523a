type t = {
  distances : int array;
  times : float array;
  density : float array array;
  population : int array;
}

let observe story ~assignment ~max_distance ~times =
  if max_distance < 1 then invalid_arg "Density.observe: max_distance >= 1";
  let population = Array.make max_distance 0 in
  Array.iter
    (fun x -> if x >= 1 && x <= max_distance then population.(x - 1) <- population.(x - 1) + 1)
    assignment;
  let nt = Array.length times in
  let counts = Array.make_matrix max_distance nt 0 in
  Array.iter
    (fun (v : Types.vote) ->
      let x = if v.Types.user < Array.length assignment then assignment.(v.Types.user) else -1 in
      if x >= 1 && x <= max_distance then
        Array.iteri
          (fun it t -> if v.Types.time <= t then counts.(x - 1).(it) <- counts.(x - 1).(it) + 1)
          times)
    story.Types.votes;
  let density =
    Array.init max_distance (fun ix ->
        Array.init nt (fun it ->
            if population.(ix) = 0 then 0.
            else
              100. *. float_of_int counts.(ix).(it) /. float_of_int population.(ix)))
  in
  {
    distances = Array.init max_distance (fun i -> i + 1);
    times = Array.copy times;
    density;
    population;
  }

let distance_distribution ~assignment ~max_distance =
  let counts = Array.make max_distance 0 in
  let total = ref 0 in
  Array.iter
    (fun x ->
      if x >= 1 then begin
        incr total;
        if x <= max_distance then counts.(x - 1) <- counts.(x - 1) + 1
      end)
    assignment;
  Array.init max_distance (fun i ->
      ( i + 1,
        if !total = 0 then 0.
        else float_of_int counts.(i) /. float_of_int !total ))

let index_of arr v ~eq =
  let found = ref (-1) in
  Array.iteri (fun i x -> if !found < 0 && eq x v then found := i) arr;
  if !found < 0 then raise Not_found else !found

let at t ~distance ~time =
  let ix = index_of t.distances distance ~eq:( = ) in
  let it = index_of t.times time ~eq:(fun a b -> Float.abs (a -. b) < 1e-9) in
  t.density.(ix).(it)

let mean_relative_error t ~times ~predict =
  let err = ref 0. and cells = ref 0 in
  Array.iter
    (fun x ->
      Array.iter
        (fun time ->
          let actual = at t ~distance:x ~time in
          if actual > 0. then begin
            let predicted = predict ~x:(float_of_int x) ~t:time in
            err := !err +. (Float.abs (predicted -. actual) /. actual);
            incr cells
          end)
        times)
    t.distances;
  ((if !cells = 0 then Float.nan else !err /. float_of_int !cells), !cells)

let series_at_distance t ~distance =
  let ix = index_of t.distances distance ~eq:( = ) in
  Array.copy t.density.(ix)

let pp ppf t =
  Format.fprintf ppf "@[<v>x \\ t ";
  Array.iter (fun tm -> Format.fprintf ppf "%8.1f" tm) t.times;
  Format.fprintf ppf "@,";
  Array.iteri
    (fun ix x ->
      Format.fprintf ppf "%-6d" x;
      Array.iter (fun v -> Format.fprintf ppf "%8.2f" v) t.density.(ix);
      Format.fprintf ppf "  (|U|=%d)@," t.population.(ix))
    t.distances;
  Format.fprintf ppf "@]"
