let votes_per_hour (s : Types.story) ~duration =
  if duration <= 0. then invalid_arg "Temporal.votes_per_hour: duration > 0";
  let buckets = int_of_float (ceil duration) in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun (v : Types.vote) ->
      if v.Types.time < duration then begin
        let b = Stdlib.min (buckets - 1) (int_of_float v.Types.time) in
        counts.(b) <- counts.(b) + 1
      end)
    s.Types.votes;
  counts

let time_to_fraction (s : Types.story) ~fraction =
  if fraction <= 0. || fraction > 1. then
    invalid_arg "Temporal.time_to_fraction: fraction in (0, 1]";
  let total = Array.length s.Types.votes in
  let needed = int_of_float (ceil (fraction *. float_of_int total)) in
  let needed = Stdlib.max 1 needed in
  s.Types.votes.(needed - 1).Types.time

let saturation_time ?(tolerance = 0.02) (s : Types.story) =
  time_to_fraction s ~fraction:(1. -. tolerance)

type inter_arrival = { mean : float; median : float; max : float }

let inter_arrival_stats (s : Types.story) =
  let n = Array.length s.Types.votes in
  if n < 2 then invalid_arg "Temporal.inter_arrival_stats: need >= 2 votes";
  let gaps =
    Array.init (n - 1) (fun i ->
        s.Types.votes.(i + 1).Types.time -. s.Types.votes.(i).Types.time)
  in
  {
    mean = Numerics.Stats.mean gaps;
    median = Numerics.Stats.median gaps;
    max = Numerics.Stats.max gaps;
  }

let spread_speed_rank stories =
  let ranked =
    Array.map
      (fun (s : Types.story) ->
        (s.Types.id, time_to_fraction s ~fraction:0.5))
      stories
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare a b) ranked;
  ranked
