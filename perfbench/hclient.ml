(* A small HTTP/1.1 keep-alive client over non-blocking sockets.  The
   serve-read loop keeps one request in flight on each of two
   connections from one thread, so reads are driven by [Unix.select];
   every wait has a deadline, so a wedged server fails the run instead
   of hanging it. *)

type response = { status : int; body : string }

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;  (* bytes read but not yet consumed *)
  chunk : Bytes.t;
}

let connect ~port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  { fd; inbuf = ""; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let fd c = c.fd

let request_bytes ?(body = "") meth target =
  let b = Buffer.create (String.length body + 128) in
  Buffer.add_string b meth;
  Buffer.add_char b ' ';
  Buffer.add_string b target;
  Buffer.add_string b " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if body <> "" || meth = "POST" then begin
    Buffer.add_string b "Content-Type: application/json\r\nContent-Length: ";
    Buffer.add_string b (string_of_int (String.length body));
    Buffer.add_string b "\r\n"
  end;
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b

let timed_out what = failwith (what ^ ": timed out")

let rec select_retry r w timeout =
  try Unix.select r w [] timeout
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r w timeout

let send c bytes ~deadline =
  let n = String.length bytes in
  let rec go off =
    if off < n then begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then timed_out "send";
      match Unix.write_substring c.fd bytes off (n - off) with
      | k -> go (off + k)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ignore (select_retry [] [ c.fd ] left);
        go off
    end
  in
  go 0

let header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let content_length head =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i))
             = "content-length" ->
        int_of_string_opt
          (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> acc)
    None
    (String.split_on_char '\n' head)

(* A complete response at the front of the buffer, consumed. *)
let take_response c =
  match header_end c.inbuf with
  | None -> None
  | Some h -> (
    let head = String.sub c.inbuf 0 h in
    let status =
      match String.split_on_char ' ' head with
      | _ :: code :: _ -> (
        match int_of_string_opt (String.trim code) with
        | Some s -> s
        | None -> failwith "malformed status line")
      | _ -> failwith "malformed status line"
    in
    let len =
      match content_length head with
      | Some l -> l
      | None -> failwith "response without Content-Length"
    in
    let total = h + 4 + len in
    if String.length c.inbuf < total then None
    else begin
      let body = String.sub c.inbuf (h + 4) len in
      c.inbuf <- String.sub c.inbuf total (String.length c.inbuf - total);
      Some { status; body }
    end)

(* Read whatever the socket has (the caller selected it readable). *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "connection closed by server"
  | k -> c.inbuf <- c.inbuf ^ Bytes.sub_string c.chunk 0 k
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()

let await c ~deadline =
  let rec go () =
    match take_response c with
    | Some r -> r
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then timed_out "response";
      (match select_retry [ c.fd ] [] left with
      | [], _, _ -> ()
      | _ -> fill c);
      go ()
  in
  go ()

let timeout_s = 30.

let call c ?body meth target =
  let deadline = Unix.gettimeofday () +. timeout_s in
  send c (request_bytes ?body meth target) ~deadline;
  await c ~deadline

(* [call] that insists on a 200. *)
let call_ok c ?body meth target =
  let r = call c ?body meth target in
  if r.status <> 200 then
    failwith
      (Printf.sprintf "%s %s answered %d: %s" meth target r.status
         (String.sub r.body 0 (min 200 (String.length r.body))));
  r.body

(* One sample of a Prometheus text exposition, e.g.
   [metric t "pde_solves_total"] or
   [metric t "serve_request_ns_sum{label=\"predict\"}"]. *)
let metric text name =
  let key = "dlosn_" ^ name ^ " " in
  let kl = String.length key in
  List.fold_left
    (fun acc line ->
      if String.length line > kl && String.sub line 0 kl = key then
        float_of_string_opt (String.sub line kl (String.length line - kl))
      else acc)
    None
    (String.split_on_char '\n' text)
  |> Option.value ~default:0.
