type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
  version : string;
}

type read_error =
  | Closed
  | Timeout
  | Too_large of string
  | Bad of string

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

(* --- target decoding --- *)

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* '+' means space only inside query strings (the form-urlencoded rule);
   in a path segment it is a literal plus, so the path decoder must not
   touch it. *)
let decode ~plus_is_space s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
      match (hex_value s.[!i + 1], hex_value s.[!i + 2]) with
      | Some hi, Some lo ->
        Buffer.add_char buf (Char.chr ((hi * 16) + lo));
        i := !i + 2
      | _ -> Buffer.add_char buf '%')
    | '+' when plus_is_space -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let percent_decode s = decode ~plus_is_space:false s

let parse_query q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             let dec = decode ~plus_is_space:true in
             match String.index_opt kv '=' with
             | None -> Some (dec kv, "")
             | Some eq ->
               Some
                 ( dec (String.sub kv 0 eq),
                   dec (String.sub kv (eq + 1) (String.length kv - eq - 1)) ))

(* --- blocking-socket read helper (client side, SO_RCVTIMEO sockets) --- *)

let rec read_some fd buf off len =
  match Unix.read fd buf off len with
  | n -> Ok n
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    (* a signal (e.g. SIGTERM starting a drain) must not masquerade as a
       peer close: retry the read *)
    read_some fd buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Error Timeout
  | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> Error Timeout
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    Error Closed

(* --- header parsing --- *)

let parse_headers lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some colon ->
        let name =
          String.lowercase_ascii (String.trim (String.sub line 0 colon))
        in
        let value =
          String.trim
            (String.sub line (colon + 1) (String.length line - colon - 1))
        in
        Some (name, value))
    lines

let split_crlf s =
  (* String.split_on_char '\n' then strip the trailing '\r' *)
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let n = String.length line in
         if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
         else line)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* The body's framing.  Anything a front end could read differently
   from us is request smuggling bait, so it is refused outright:
   - a repeated Content-Length (two conflicting values frame the body
     two ways; even two identical copies signal a mangled or hostile
     intermediary);
   - a Content-Length that is not RFC 9112's 1*DIGIT ([int_of_string]
     alone would also take "0x1f", "+31", "3_1" and "0o37");
   - any Transfer-Encoding, which we do not decode: its chunk lines
     would otherwise be parsed as the next pipelined request. *)
let content_length_of headers =
  let is_digit c = c >= '0' && c <= '9' in
  if List.mem_assoc "transfer-encoding" headers then
    Error (Bad "Transfer-Encoding is not supported; send a Content-Length")
  else
    match List.filter (fun (name, _) -> name = "content-length") headers with
    | [] -> Ok 0
    | [ (_, v) ] -> (
      let v' = String.trim v in
      match int_of_string_opt v' with
      | Some n when String.for_all is_digit v' -> Ok n
      | _ -> Error (Bad (Printf.sprintf "bad Content-Length %S" v)))
    | _ :: _ :: _ -> Error (Bad "duplicate Content-Length headers")

let header_of req name = List.assoc_opt (String.lowercase_ascii name) req.headers

let keep_alive req =
  (* Connection: is a comma-separated token list on both versions;
     "close" wins over "keep-alive", and the absence of either falls
     back to the version default (persistent on 1.1, one-shot on 1.0) *)
  let tokens =
    match header_of req "connection" with
    | None -> []
    | Some v ->
      String.split_on_char ',' v
      |> List.map (fun tok -> String.lowercase_ascii (String.trim tok))
  in
  if List.mem "close" tokens then false
  else if List.mem "keep-alive" tokens then true
  else req.version = "HTTP/1.1"

(* --- incremental request parser --- *)

(* Bytes arrive in arbitrary chunks from a non-blocking socket; the
   parser accumulates them and yields complete requests one at a time.
   Bytes past the end of a request (the start of a pipelined next
   request) stay buffered for the next [next] call instead of being
   discarded. *)

type head = {
  h_meth : string;
  h_target : string;
  h_version : string;
  h_headers : (string * string) list;
  h_content_length : int;
}

type parser = {
  p_max_header : int;
  p_max_body : int;
  mutable p_data : Bytes.t;
  mutable p_start : int;  (* consumed prefix *)
  mutable p_len : int;  (* live bytes at p_data[p_start ..] *)
  mutable p_scanned : int;
      (* bytes of the current head already scanned for the terminator,
         relative to p_start — makes the CRLFCRLF scan O(total bytes)
         instead of O(n^2) across chunks *)
  mutable p_head : head option;  (* parsed head awaiting its body *)
}

let parser ~max_header ~max_body =
  {
    p_max_header = max_header;
    p_max_body = max_body;
    p_data = Bytes.create 4096;
    p_start = 0;
    p_len = 0;
    p_scanned = 0;
    p_head = None;
  }

let parser_feed p src off len =
  if len < 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Http.parser_feed";
  let cap = Bytes.length p.p_data in
  if p.p_start + p.p_len + len > cap then begin
    (* compact the consumed prefix away, growing if still too small *)
    let need = p.p_len + len in
    let dst = if need <= cap then p.p_data else Bytes.create (max need (cap * 2)) in
    Bytes.blit p.p_data p.p_start dst 0 p.p_len;
    p.p_data <- dst;
    p.p_start <- 0
  end;
  Bytes.blit src off p.p_data (p.p_start + p.p_len) len;
  p.p_len <- p.p_len + len

let parser_buffered p = p.p_len
let parser_partial p = p.p_head <> None || p.p_len > 0

(* index just past "\r\n\r\n" relative to p_start, scanning only bytes
   not covered by a previous scan *)
let find_header_end p =
  let data = p.p_data and base = p.p_start in
  let rec go i =
    if i + 3 >= p.p_len then begin
      p.p_scanned <- max 0 (p.p_len - 3);
      None
    end
    else if
      Bytes.get data (base + i) = '\r'
      && Bytes.get data (base + i + 1) = '\n'
      && Bytes.get data (base + i + 2) = '\r'
      && Bytes.get data (base + i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go p.p_scanned

let parse_head p head_end =
  let head = Bytes.sub_string p.p_data p.p_start (head_end - 4) in
  let* meth, target, version, lines =
    match split_crlf head with
    | request_line :: rest -> (
      match String.split_on_char ' ' request_line with
      | [ meth; target; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" ->
        Ok (meth, target, version, rest)
      | _ ->
        Error (Bad (Printf.sprintf "malformed request line %S" request_line)))
    | [] -> Error (Bad "empty request")
  in
  let headers = parse_headers lines in
  let* content_length = content_length_of headers in
  let* () =
    if content_length > p.p_max_body then
      Error
        (Too_large
           (Printf.sprintf "body of %d bytes over the %d limit" content_length
              p.p_max_body))
    else Ok ()
  in
  Ok
    {
      h_meth = meth;
      h_target = target;
      h_version = version;
      h_headers = headers;
      h_content_length = content_length;
    }

let request_of_head h body =
  let path, query =
    match String.index_opt h.h_target '?' with
    | None -> (percent_decode h.h_target, [])
    | Some q ->
      ( percent_decode (String.sub h.h_target 0 q),
        parse_query
          (String.sub h.h_target (q + 1) (String.length h.h_target - q - 1)) )
  in
  {
    meth = h.h_meth;
    path;
    query;
    headers = h.h_headers;
    body;
    version = h.h_version;
  }

let rec parser_next p =
  match p.p_head with
  | Some h ->
    if p.p_len >= h.h_content_length then begin
      let body = Bytes.sub_string p.p_data p.p_start h.h_content_length in
      p.p_start <- p.p_start + h.h_content_length;
      p.p_len <- p.p_len - h.h_content_length;
      p.p_head <- None;
      `Request (request_of_head h body)
    end
    else `More
  | None -> (
    (* the bound holds however the bytes arrived: a complete oversized
       head in one read fails exactly as one trickling in does *)
    let too_large () =
      `Error
        (Too_large (Printf.sprintf "header block over %d bytes" p.p_max_header))
    in
    match find_header_end p with
    | None -> if p.p_len > p.p_max_header then too_large () else `More
    | Some head_end when head_end > p.p_max_header -> too_large ()
    | Some head_end -> (
      match parse_head p head_end with
      | Error e -> `Error e
      | Ok h ->
        p.p_start <- p.p_start + head_end;
        p.p_len <- p.p_len - head_end;
        p.p_scanned <- 0;
        p.p_head <- Some h;
        parser_next p))

(* --- writing --- *)

type response = {
  status : int;
  reason : string;
  content_type : string;
  extra_headers : (string * string) list;
  body : string;
}

let response ?(content_type = "text/plain; charset=utf-8")
    ?(extra_headers = []) status body =
  { status; reason = status_reason status; content_type; extra_headers; body }

let json_response status json =
  response ~content_type:"application/json" status (Tiny_json.to_string json)

let serialize_response ?(keep_alive = false) resp =
  let buf = Buffer.create (String.length resp.body + 256) in
  let add = Buffer.add_string buf in
  add "HTTP/1.1 ";
  add (string_of_int resp.status);
  add " ";
  add resp.reason;
  add "\r\nContent-Type: ";
  add resp.content_type;
  add "\r\nContent-Length: ";
  add (string_of_int (String.length resp.body));
  add "\r\n";
  List.iter
    (fun (k, v) ->
      add k;
      add ": ";
      add v;
      add "\r\n")
    resp.extra_headers;
  add
    (if keep_alive then "Connection: keep-alive\r\n\r\n"
     else "Connection: close\r\n\r\n");
  add resp.body;
  Buffer.contents buf

let write_response ?(keep_alive = false) fd resp =
  let payload = Bytes.of_string (serialize_response ~keep_alive resp) in
  let total = Bytes.length payload in
  let rec write_all off =
    if off >= total then true
    else
      match Unix.write fd payload off (total - off) with
      | n -> write_all (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
      | exception Unix.Unix_error _ -> false
  in
  write_all 0

let header = header_of
let query_param req name = List.assoc_opt name req.query
