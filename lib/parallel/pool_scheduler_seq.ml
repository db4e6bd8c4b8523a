(* Sequential backend for compilers without Domains (OCaml 4.x).  Same
   observable behaviour as the Domains backend for pool size 1, which is
   all {!Pool} ever requests from it. *)

let domains_available = false

let run thunks = Array.iter (fun thunk -> thunk ()) thunks
