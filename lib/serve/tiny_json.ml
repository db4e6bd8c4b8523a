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
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> err (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else err (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
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
          loop ()
        | 'n' ->
          Buffer.add_char buf '\n';
          loop ()
        | 't' ->
          Buffer.add_char buf '\t';
          loop ()
        | 'r' ->
          Buffer.add_char buf '\r';
          loop ()
        | 'b' ->
          Buffer.add_char buf '\b';
          loop ()
        | 'f' ->
          Buffer.add_char buf '\012';
          loop ()
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
          loop ()
        | _ -> err "bad escape")
      | c when Char.code c < 0x20 -> err "control character in string"
      | c ->
        Buffer.add_char buf c;
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Number v
    | None -> err "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth ->
      err (Printf.sprintf "nested deeper than %d levels" max_depth)
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
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
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> err "expected ',' or '}'"
        in
        members ();
        Object (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> err "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
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

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number v ->
      Buffer.add_string buf
        (if Float.is_finite v then
           (* integral values print without a fraction, like JSON ints *)
           if Float.is_integer v && Float.abs v < 1e15 then
             Printf.sprintf "%.0f" v
           else Printf.sprintf "%.17g" v
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
