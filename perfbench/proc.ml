(* Child processes and working directories of one benchmark run.  Every
   server is registered here the moment it starts, and [cleanup] (run
   on every exit path) stops and reaps them and removes the working
   tree, so a failed run leaves nothing behind. *)

let work_root = ".perfbench"

let children : int list ref = ref []
let run_tree : string option ref = ref None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* This run's private working directory, created on first use. *)
let run_dir () =
  match !run_tree with
  | Some d -> d
  | None ->
    let d =
      Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ()))
    in
    rm_rf d;
    mkdir_p d;
    run_tree := Some d;
    d

let sleep s = ignore (Unix.select [] [] [] s)

let rec waitpid_nohang pid =
  try Unix.waitpid [ Unix.WNOHANG ] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

(* SIGTERM, wait up to [grace] seconds, then SIGKILL and reap. *)
let stop ?(grace = 10.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match waitpid_nohang pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      sleep 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  children := List.filter (fun p -> p <> pid) !children

let cleanup () =
  List.iter (fun pid -> stop ~grace:5. pid) !children;
  (match !run_tree with Some d -> rm_rf d | None -> ());
  run_tree := None;
  (try Unix.rmdir work_root with Unix.Unix_error _ -> ())

type server = { pid : int; port : int; dir : string }

(* First index of [sub] in [s]. *)
let find s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* Start [dlosn serve] on an ephemeral port and wait (bounded) for the
   line announcing it.  The server is exec'd from the built binary, so
   it never depends on whether this process has spawned domains. *)
let start_server ~dlosn ~name ~jobs args =
  let dir = Filename.concat (run_dir ()) name in
  mkdir_p dir;
  let out_path = Filename.concat dir "stdout" in
  let out = Unix.openfile out_path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err =
    Unix.openfile (Filename.concat dir "stderr") [ O_WRONLY; O_CREAT; O_TRUNC ]
      0o644
  in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let argv =
    Array.of_list
      ([ dlosn; "serve"; "--port"; "0"; "--jobs"; string_of_int jobs; "--log-level"; "error" ]
      @ args)
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; err; devnull ])
      (fun () -> Unix.create_process dlosn argv devnull out err)
  in
  children := pid :: !children;
  let deadline = Unix.gettimeofday () +. 30. in
  let marker = "http://127.0.0.1:" in
  let rec await () =
    let text = read_file out_path in
    match find text marker with
    | Some i ->
      let start = i + String.length marker in
      let stop_ = ref start in
      while !stop_ < String.length text && text.[!stop_] >= '0' && text.[!stop_] <= '9'
      do incr stop_ done;
      if !stop_ = start || !stop_ = String.length text then begin
        sleep 0.005;
        await ()
      end
      else int_of_string (String.sub text start (!stop_ - start))
    | None ->
      (match waitpid_nohang pid with
      | 0, _ -> ()
      | _ ->
        children := List.filter (fun p -> p <> pid) !children;
        failwith
          (Printf.sprintf "server %s exited during start-up: %s" name
             (read_file (Filename.concat dir "stderr"))));
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "server %s did not start within 30 s" name);
      sleep 0.005;
      await ()
  in
  let port = await () in
  { pid; port; dir }
