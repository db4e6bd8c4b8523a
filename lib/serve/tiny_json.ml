type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

exception Err of int * string

(* The API's deepest document nests 3 levels ({"density":[[...]]});
   the limit keeps the recursion, and the work a hostile body can
   demand, bounded. *)
let max_depth = 32

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Err (!pos, msg)) in
  let advance () = incr pos in
  (* is the next byte [c]?  A comparison: peeking allocates nothing *)
  let next_is c = !pos < n && String.unsafe_get s !pos = c in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
  in
  let expect c = if next_is c then advance () else err (Printf.sprintf "expected %C" c) in
  let literal word value =
    let l = String.length word in
    let rec same i = i = l || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      value
    end
    else err (Printf.sprintf "expected %s" word)
  in
  (* A string with escapes is decoded a byte at a time into [buf],
     from the cursor on. *)
  let rec escaped buf =
    if !pos >= n then err "unterminated string";
    let c = s.[!pos] in
    advance ();
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
      if !pos >= n then err "unterminated escape";
      let e = s.[!pos] in
      advance ();
      match e with
      | '"' | '\\' | '/' ->
        Buffer.add_char buf e;
        escaped buf
      | 'n' ->
        Buffer.add_char buf '\n';
        escaped buf
      | 't' ->
        Buffer.add_char buf '\t';
        escaped buf
      | 'r' ->
        Buffer.add_char buf '\r';
        escaped buf
      | 'b' ->
        Buffer.add_char buf '\b';
        escaped buf
      | 'f' ->
        Buffer.add_char buf '\012';
        escaped buf
      | 'u' ->
        if !pos + 4 > n then err "truncated \\u escape";
        let hex = String.sub s !pos 4 in
        pos := !pos + 4;
        let code =
          match int_of_string_opt ("0x" ^ hex) with
          | Some c -> c
          | None -> err "bad \\u escape"
        in
        (* UTF-8 encode the BMP code point (surrogate pairs are left
           as two encoded halves — good enough for an internal API) *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        escaped buf
      | _ -> err "bad escape")
    | c when Char.code c < 0x20 -> err "control character in string"
    | c ->
      Buffer.add_char buf c;
      escaped buf
  in
  (* Most strings (keys, ids) hold no escape: scan to the closing quote
     and take them with one [String.sub].  The first backslash hands
     the rest to [escaped]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let rec plain i =
      if i >= n then begin
        pos := n;
        err "unterminated string"
      end
      else
        match String.unsafe_get s i with
        | '"' ->
          pos := i + 1;
          String.sub s start (i - start)
        | '\\' ->
          pos := i;
          let buf = Buffer.create (i - start + 16) in
          Buffer.add_substring buf s start (i - start);
          escaped buf
        | c when Char.code c < 0x20 ->
          pos := i + 1;
          err "control character in string"
        | _ -> plain (i + 1)
    in
    plain start
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char (String.unsafe_get s !pos) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Number v
    | None -> err "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then err "unexpected end of input";
    match String.unsafe_get s !pos with
    | ('{' | '[') when depth >= max_depth ->
      err (Printf.sprintf "nested deeper than %d levels" max_depth)
    | '{' ->
      advance ();
      skip_ws ();
      if next_is '}' then begin
        advance ();
        Object []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws ();
          if next_is ',' then begin
            advance ();
            members ()
          end
          else if next_is '}' then advance ()
          else err "expected ',' or '}'"
        in
        members ();
        Object (List.rev !fields)
      end
    | '[' ->
      advance ();
      skip_ws ();
      if next_is ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          if next_is ',' then begin
            advance ();
            elements ()
          end
          else if next_is ']' then advance ()
          else err "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then err "trailing content";
    v
  with
  | v -> Ok v
  | exception Err (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* The primitive [Printf.sprintf "%.17g"] (and "%.0f") ends in, called
   with the same format strings: the same bytes, without interpreting
   the format on every number. *)
external format_float : string -> float -> string = "caml_format_float"

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number v ->
      Buffer.add_string buf
        (if Float.is_finite v then
           (* integral values print without a fraction, like JSON ints *)
           if Float.is_integer v && Float.abs v < 1e15 then format_float "%.0f" v
           else format_float "%.17g" v
         else "null")
    | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Object fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Number v -> Some v | _ -> None

let to_int = function
  | Number v when Float.is_integer v && Float.abs v <= 1e9 ->
    Some (int_of_float v)
  | _ -> None

let to_list = function List items -> Some items | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
