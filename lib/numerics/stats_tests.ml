let bootstrap_ci ?(confidence = 0.95) ?(resamples = 1000) rng sample statistic =
  let n = Array.length sample in
  if n = 0 then invalid_arg "Stats_tests.bootstrap_ci: empty sample";
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Stats_tests.bootstrap_ci: confidence in (0, 1)";
  let stats =
    Array.init resamples (fun _ ->
        let resample = Array.init n (fun _ -> sample.(Rng.int rng n)) in
        statistic resample)
  in
  let alpha = (1. -. confidence) /. 2. in
  (Stats.quantile stats alpha, Stats.quantile stats (1. -. alpha))

let bootstrap_mean_ci ?confidence ?resamples rng sample =
  bootstrap_ci ?confidence ?resamples rng sample Stats.mean
