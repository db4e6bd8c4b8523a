type config = {
  threshold : float;
  min_votes : int;
  min_new_votes : int;
}

let default = { threshold = 0.25; min_votes = 8; min_new_votes = 4 }

let relative_error ~predict ~obs ~times =
  let times =
    Array.of_seq (Seq.filter (fun t -> t > 1. +. 1e-9) (Array.to_seq times))
  in
  match Socialnet.Density.mean_relative_error obs ~times ~predict with
  | _, 0 -> (0., 0)
  | r -> r

let should_refit cfg ~drift ~cells ~votes ~votes_at_fit =
  cells > 0
  && votes >= cfg.min_votes
  && votes - votes_at_fit >= cfg.min_new_votes
  && (Float.is_nan drift || drift >= cfg.threshold)
