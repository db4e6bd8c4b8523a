(* The benchmark's declared metrics (read from BENCHMARK.json, the single
   source of their names and units), the result line, and the run's
   fingerprint. *)

type decl = { end_to_end : (string * string) list; per_layer : (string * string) list }

let read_decl path =
  let module J = Serve.Tiny_json in
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> failwith ("cannot read " ^ e)
  in
  let json = match J.parse text with Ok j -> j | Error e -> failwith (path ^ ": " ^ e) in
  let list key =
    match Option.bind (J.member key json) J.to_list with
    | Some l -> l
    | None -> failwith (Printf.sprintf "%s: no %S list" path key)
  in
  let str key o =
    match Option.bind (J.member key o) J.to_string_opt with
    | Some s -> s
    | None -> failwith (Printf.sprintf "%s: entry without %S" path key)
  in
  let metrics key = List.map (fun o -> (str "name" o, str "unit" o)) (list key) in
  {
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* JSON has no NaN or infinity; a run that produced one is incorrect. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1"

(* The last line of a run: exactly the declared metrics, in declared
   order.  A declared metric the run did not produce is an error. *)
let result_line ~declared ~correct ~attempted ~failed values =
  let extra = List.filter (fun (k, _) -> not (List.mem_assoc k declared)) values in
  if extra <> [] then failwith ("undeclared metric " ^ fst (List.hd extra));
  let correct = correct && List.for_all (fun (_, v) -> Float.is_finite v) values in
  let fields =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name values with
        | None -> failwith ("metric not produced: " ^ name)
        | Some v -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit_)
      declared
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed (String.concat ", " fields)

let first_line_with prefix path =
  try
    In_channel.with_open_text path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l >= String.length prefix
                        && String.sub l 0 (String.length prefix) = prefix ->
            Some l
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> None

(* Processors the host reports (no [Domain] API, so this also builds on
   OCaml 4.14). *)
let nproc () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec go n =
          match In_channel.input_line ic with
          | None -> n
          | Some l ->
            go (if String.length l >= 9 && String.sub l 0 9 = "processor" then n + 1 else n)
        in
        go 0)
  with Sys_error _ -> 0

let cpu_model () =
  match first_line_with "model name" "/proc/cpuinfo" with
  | Some l -> (
    match String.index_opt l ':' with
    | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
    | None -> "unknown")
  | None -> "unknown"

let read_trim path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* The commit when run from a git work tree, else "none". *)
let commit () =
  match read_trim ".git/HEAD" with
  | None -> "none"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let r = String.sub head 5 (String.length head - 5) in
    Option.value ~default:"unknown" (read_trim (Filename.concat ".git" r))
  | Some head -> head

(* A digest of the sources the run was built from, which identifies the
   code even where there is no git metadata. *)
let source_md5 () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if
               Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" || e = "dune"
             then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  let all = List.concat_map files [ "lib"; "bin"; "perfbench" ] in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun p -> p ^ Digest.to_hex (Digest.file p)) all)))

let fingerprint ~workload ~seed ~seconds ~trace =
  Printf.sprintf
    "fingerprint: workload=%s seed=%d seconds=%d trace=%d nproc=%d cpu=%S ocaml=%s commit=%s source_md5=%s"
    workload seed seconds trace
    (nproc ())
    (cpu_model ()) Sys.ocaml_version (commit ()) (source_md5 ())
