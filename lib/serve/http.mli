(** HTTP/1.1 wire protocol for the serving layer.

    Just enough of RFC 9112 for the model server: an {e incremental}
    request parser that the event loop feeds raw socket bytes (complete
    requests come out one at a time; bytes past a request's end are
    preserved as the start of the next pipelined request), bounded
    header and body sizes, [Connection:]-header keep-alive semantics on
    both 1.0 and 1.1, and response serialization.  No TLS, no chunked
    transfer encoding — the load balancer's job, not the model
    server's. *)

type request = {
  meth : string;  (** verb, upper-case as received (["GET"], ["POST"]) *)
  path : string;
      (** decoded path without the query string ([+] is {e not} a space
          here — that rule is query-string-only) *)
  query : (string * string) list;  (** decoded query parameters, in order *)
  headers : (string * string) list;  (** names lower-cased *)
  body : string;
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] as received *)
}

type read_error =
  | Closed  (** peer vanished before a full request arrived *)
  | Timeout  (** a blocking-socket read timeout expired *)
  | Too_large of string  (** header block or body over its bound *)
  | Bad of string  (** malformed request line, header or length *)

val keep_alive : request -> bool
(** Whether the connection should persist after this request:
    [Connection: close] forces false and [Connection: keep-alive]
    forces true on either version (comma-separated token lists are
    honoured, [close] winning); absent both, HTTP/1.1 persists and
    HTTP/1.0 does not. *)

(** {2 Incremental parsing} *)

type parser
(** Accumulates raw bytes from one connection and yields complete
    requests.  The header-terminator scan resumes where the previous
    chunk's scan stopped, so a header block arriving in many small
    chunks costs O(bytes), not O(bytes²). *)

val parser : max_header:int -> max_body:int -> parser
(** A fresh parser.  The header block (request line + headers) is
    bounded by [max_header] bytes and the body by [max_body]; a
    [Content-Length] over the bound fails with [Too_large] without
    waiting for the body. *)

val parser_feed : parser -> Bytes.t -> int -> int -> unit
(** [parser_feed p buf off len] appends [len] bytes of fresh socket
    input. *)

val parser_next :
  parser -> [ `Request of request | `More | `Error of read_error ]
(** The next complete request, [`More] if the buffered bytes do not yet
    finish one, or [`Error] ([Bad] / [Too_large]) if they can never
    parse — the connection should answer and close.  After a
    [`Request], call again: pipelined followers may already be
    buffered.  Framing a front end could read differently is rejected
    as [Bad] (request-smuggling bait): duplicate [Content-Length]
    headers, a [Content-Length] that is not all ASCII digits, and any
    [Transfer-Encoding].  So are unknown HTTP versions and malformed
    request lines. *)

val parser_partial : parser -> bool
(** Whether a partially received request sits in the buffer — i.e. the
    peer owes us bytes.  Used to distinguish an idle keep-alive
    connection (close silently) from one that stalled mid-request
    (answer 408). *)

val parser_buffered : parser -> int
(** Unconsumed bytes currently buffered. *)

(** {2 Blocking-socket helper} *)

val read_some :
  Unix.file_descr -> Bytes.t -> int -> int -> (int, read_error) result
(** One [Unix.read] for blocking sockets with [SO_RCVTIMEO] set (the
    client side): [EINTR] retries — a signal must never masquerade as
    a peer close — [EAGAIN]/[ETIMEDOUT] is [Timeout], reset/pipe
    errors are [Closed]. *)

(** {2 Responses} *)

type response = {
  status : int;
  reason : string;
  content_type : string;
  extra_headers : (string * string) list;
  body : string;
}

val response :
  ?content_type:string -> ?extra_headers:(string * string) list ->
  int -> string -> response
(** [response status body] with the standard reason phrase for
    [status] and content type [text/plain] unless overridden. *)

val json_response : int -> Tiny_json.t -> response

val serialize_response : ?keep_alive:bool -> response -> string
(** Wire bytes for [resp], with [Content-Length] and a [Connection:]
    header matching [keep_alive] (default [false], i.e.
    [Connection: close]). *)

val write_response : ?keep_alive:bool -> Unix.file_descr -> response -> bool
(** Serialise and send over a blocking socket.  Returns [false] if the
    peer closed or the write timeout expired — the caller just closes
    the socket either way. *)

(** {2 Decoding helpers} *)

val percent_decode : string -> string
(** Path-style decoding: [%XX] escapes only.  ['+'] is preserved — it
    means space only in query strings. *)

val parse_query : string -> (string * string) list
(** Form-urlencoded query decoding: [%XX] escapes and ['+'] as
    space. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val query_param : request -> string -> string option
