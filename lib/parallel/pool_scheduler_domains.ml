(* Domains backend (OCaml >= 5.0).  The first thunk runs on the calling
   domain so a batch of [w] workers costs [w - 1] spawns. *)

let domains_available = true

let run thunks =
  match Array.length thunks with
  | 0 -> ()
  | 1 -> thunks.(0) ()
  | n ->
    let spawned =
      Array.init (n - 1) (fun i -> Domain.spawn thunks.(i + 1))
    in
    thunks.(0) ();
    Array.iter Domain.join spawned
