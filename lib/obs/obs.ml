(* Observability substrate: structured logging, a metrics registry and
   span tracing, shared by every layer of the DL pipeline.

   Design constraints (see docs/OBSERVABILITY.md):
   - zero-cost when disabled: one atomic load + branch per site, log
     field closures never evaluated, no timing syscalls;
   - domain-safe and deterministic: worker domains record into private
     shards (installed by Parallel.Pool) that are merged on the calling
     domain in worker-index order at pool teardown, so counter totals
     are exact and never racy;
   - purely observational: nothing here feeds back into the numeric
     path, so results are bit-identical with observability on or off. *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* --- unique ids (spans and traces) ---

   splitmix64 over a per-process seed xor a shared counter: unique
   within a process run, overwhelmingly unique across processes, and
   cheap (no syscall after init).  Only generated while enabled. *)

let id_seed =
  Int64.logxor
    (Int64.bits_of_float (Unix.gettimeofday ()))
    (Int64.mul (Int64.of_int (Unix.getpid ())) 0x9E3779B97F4A7C15L)

let id_counter = Atomic.make 1

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_id64 () =
  let n = Atomic.fetch_and_add id_counter 1 in
  let v =
    mix64 (Int64.add id_seed (Int64.mul (Int64.of_int n) 0x9E3779B97F4A7C15L))
  in
  (* OTLP forbids all-zero ids; the guard costs nothing *)
  if v = 0L then 1L else v

(* --- global switch --- *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- severity levels --- *)

module Level = struct
  type t = Debug | Info | Warn | Error

  let to_int = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  let to_string = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let valid_names = "debug|info|warn|error"

  let of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "debug" -> Ok Debug
    | "info" -> Ok Info
    | "warn" | "warning" -> Ok Warn
    | "error" -> Ok Error
    | other ->
      Error (Printf.sprintf "unknown log level %S (%s)" other valid_names)
end

(* --- JSON helpers (shared by the log sink and the metrics dump) --- *)

let json_escape_into buf s =
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

let json_float v =
  (* JSON has no NaN/Infinity; map them to null. %.17g round-trips. *)
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* --- structured logger --- *)

(* Forward reference to the per-context trace id (the context type is
   defined below, after Log, because span nodes carry Log.field lists). *)
let current_trace : (unit -> string option) ref = ref (fun () -> None)

module Log = struct
  type value = String of string | Int of int | Float of float | Bool of bool
  type field = string * value

  let str k v = (k, String v)
  let int k v = (k, Int v)
  let float k v = (k, Float v)
  let bool k v = (k, Bool v)

  type sink = Human | Json

  let cur_sink = Atomic.make Human
  let set_sink s = Atomic.set cur_sink s
  let sink () = Atomic.get cur_sink

  (* -1 = logging off; otherwise the minimum Level.to_int to emit. *)
  let filter = Atomic.make (-1)

  let set_level = function
    | None -> Atomic.set filter (-1)
    | Some l -> Atomic.set filter (Level.to_int l)

  let level () =
    match Atomic.get filter with
    | 0 -> Some Level.Debug
    | 1 -> Some Level.Info
    | 2 -> Some Level.Warn
    | 3 -> Some Level.Error
    | _ -> None

  let out = ref (fun line -> prerr_endline line)
  let set_out f = out := f

  let would_log l =
    Atomic.get enabled_flag
    &&
    let min_level = Atomic.get filter in
    min_level >= 0 && Level.to_int l >= min_level

  let add_value_json buf = function
    | String s ->
      Buffer.add_char buf '"';
      json_escape_into buf s;
      Buffer.add_char buf '"'
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (json_float f)
    | Bool b -> Buffer.add_string buf (string_of_bool b)

  let add_value_human buf = function
    | String s -> Buffer.add_string buf s
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
    | Bool b -> Buffer.add_string buf (string_of_bool b)

  (* A fully-evaluated log record, as handed to the tee hook. *)
  type record = {
    r_ts : float; (* epoch seconds *)
    r_level : Level.t;
    r_msg : string;
    r_fields : field list;
    r_trace_id : string option;
  }

  (* Optional structured tap fed after the textual sink (used by the
     OTLP exporter). Exceptions from the tee are swallowed: telemetry
     must never break the instrumented program. *)
  let tee : (record -> unit) option Atomic.t = Atomic.make None
  let set_tee f = Atomic.set tee f

  (* The whole record becomes one [!out] call, so concurrent emitters
     cannot interleave within a line. *)
  let emit l msg fields =
    let ts = Unix.gettimeofday () in
    let trace = !current_trace () in
    let buf = Buffer.create 128 in
    (match Atomic.get cur_sink with
    | Json ->
      Buffer.add_string buf "{\"ts\":";
      Buffer.add_string buf (Printf.sprintf "%.6f" ts);
      Buffer.add_string buf ",\"level\":\"";
      Buffer.add_string buf (Level.to_string l);
      Buffer.add_string buf "\",\"msg\":\"";
      json_escape_into buf msg;
      Buffer.add_char buf '"';
      (match trace with
      | None -> ()
      | Some tid ->
        Buffer.add_string buf ",\"trace_id\":\"";
        json_escape_into buf tid;
        Buffer.add_char buf '"');
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf ",\"";
          json_escape_into buf k;
          Buffer.add_string buf "\":";
          add_value_json buf v)
        fields;
      Buffer.add_char buf '}'
    | Human ->
      Buffer.add_string buf (Printf.sprintf "[%-5s] " (Level.to_string l));
      Buffer.add_string buf msg;
      (match trace with
      | None -> ()
      | Some tid ->
        Buffer.add_string buf " trace=";
        Buffer.add_string buf tid);
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_char buf '=';
          add_value_human buf v)
        fields);
    !out (Buffer.contents buf);
    match Atomic.get tee with
    | None -> ()
    | Some f -> (
      try
        f
          {
            r_ts = ts;
            r_level = l;
            r_msg = msg;
            r_fields = fields;
            r_trace_id = trace;
          }
      with _ -> ())

  let log l ?fields msg =
    if would_log l then
      emit l msg (match fields with None -> [] | Some f -> f ())

  let debug ?fields msg = log Level.Debug ?fields msg
  let info ?fields msg = log Level.Info ?fields msg
  let warn ?fields msg = log Level.Warn ?fields msg
  let error ?fields msg = log Level.Error ?fields msg
end

(* --- metric registry (definitions are global and append-only) --- *)

type kind = Kcounter | Kgauge | Khist of float array

type def = { id : int; name : string; label : string option; kind : kind }

let registry : def array ref = ref [||]
let reg_index : (string * string option, int) Hashtbl.t = Hashtbl.create 64

(* Registration is rare (module init, pool setup); a tiny spin lock
   keeps it safe if it ever happens off the main domain. *)
let reg_lock = Atomic.make false

let with_reg_lock f =
  while not (Atomic.compare_and_set reg_lock false true) do
    ()
  done;
  Fun.protect ~finally:(fun () -> Atomic.set reg_lock false) f

(* --- per-domain context: metric cells + span stack --- *)

type cell =
  | Ccounter of { mutable c : int }
  | Cgauge of { mutable gset : bool; mutable g : float }
  | Chist of {
      bounds : float array;
      counts : int array; (* length = Array.length bounds + 1 (overflow) *)
      mutable total : int;
      mutable sum : float;
    }

type span_node = {
  sname : string;
  sid : string; (* 16-hex span id *)
  strace : string; (* 32-hex trace id; "" when recorded outside a trace *)
  mutable sattrs : Log.field list; (* newest first *)
  sstart : int;
  mutable send : int;
  mutable sdur : int;
  mutable schildren : span_node list; (* newest first *)
}

type context = {
  mutable cells : cell option array; (* indexed by def.id, grown on demand *)
  mutable open_spans : span_node list; (* innermost first *)
  mutable done_spans : span_node list; (* completed roots, newest first *)
  mutable trace : string option; (* request-scoped trace id, if any *)
}

let new_context () =
  { cells = [||]; open_spans = []; done_spans = []; trace = None }

let ctx_key = Domain.DLS.new_key new_context
let current () = Domain.DLS.get ctx_key
let () = current_trace := fun () -> (current ()).trace

let cell_of_def ctx (d : def) =
  if d.id >= Array.length ctx.cells then begin
    let n = Array.length ctx.cells in
    let grown = Array.make (Stdlib.max (d.id + 1) (Stdlib.max 16 (2 * n))) None in
    Array.blit ctx.cells 0 grown 0 n;
    ctx.cells <- grown
  end;
  match ctx.cells.(d.id) with
  | Some c -> c
  | None ->
    let c =
      match d.kind with
      | Kcounter -> Ccounter { c = 0 }
      | Kgauge -> Cgauge { gset = false; g = 0. }
      | Khist bounds ->
        Chist
          {
            bounds;
            counts = Array.make (Array.length bounds + 1) 0;
            total = 0;
            sum = 0.;
          }
    in
    ctx.cells.(d.id) <- Some c;
    c

module Metrics = struct
  type counter = def
  type gauge = def
  type histogram = def

  (* exponential nanosecond buckets: 1 us .. 10 s, then overflow *)
  let default_buckets = [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 |]

  let same_kind a b =
    match (a, b) with
    | Kcounter, Kcounter | Kgauge, Kgauge | Khist _, Khist _ -> true
    | _ -> false

  let register ~name ~label kind =
    with_reg_lock (fun () ->
        match Hashtbl.find_opt reg_index (name, label) with
        | Some id ->
          let d = !registry.(id) in
          if not (same_kind d.kind kind) then
            invalid_arg
              (Printf.sprintf
                 "Obs.Metrics: %S re-registered with a different kind" name);
          d
        | None ->
          let id = Array.length !registry in
          let d = { id; name; label; kind } in
          registry := Array.append !registry [| d |];
          Hashtbl.add reg_index (name, label) id;
          d)

  let counter ?label name = register ~name ~label Kcounter
  let gauge ?label name = register ~name ~label Kgauge

  let histogram ?label ?(buckets = default_buckets) name =
    register ~name ~label (Khist buckets)

  let incr ?(by = 1) (d : counter) =
    if enabled () then
      match cell_of_def (current ()) d with
      | Ccounter c -> c.c <- c.c + by
      | _ -> assert false

  let set (d : gauge) v =
    if enabled () then
      match cell_of_def (current ()) d with
      | Cgauge g ->
        g.g <- v;
        g.gset <- true
      | _ -> assert false

  let observe (d : histogram) v =
    if enabled () then
      match cell_of_def (current ()) d with
      | Chist h ->
        let i = ref 0 in
        while !i < Array.length h.bounds && v > h.bounds.(!i) do
          i := !i + 1
        done;
        h.counts.(!i) <- h.counts.(!i) + 1;
        h.total <- h.total + 1;
        h.sum <- h.sum +. v
      | _ -> assert false

  (* readers: values from the calling domain's context (after pool
     teardown that is the merged view) *)

  let counter_value (d : counter) =
    match cell_of_def (current ()) d with Ccounter c -> c.c | _ -> assert false

  let gauge_value (d : gauge) =
    match cell_of_def (current ()) d with
    | Cgauge g -> if g.gset then Some g.g else None
    | _ -> assert false

  let histogram_count (d : histogram) =
    match cell_of_def (current ()) d with
    | Chist h -> h.total
    | _ -> assert false

  let histogram_sum (d : histogram) =
    match cell_of_def (current ()) d with
    | Chist h -> h.sum
    | _ -> assert false

  let reset () = (current ()).cells <- [||]

  (* --- JSON dump: schema dlosn-metrics/1 --- *)

  let schema_version = "dlosn-metrics/1"

  let to_json_string () =
    let ctx = current () in
    let defs = with_reg_lock (fun () -> !registry) in
    let buf = Buffer.create 1024 in
    let add = Buffer.add_string buf in
    let add_name_label (d : def) =
      add "{\"name\":\"";
      json_escape_into buf d.name;
      add "\",\"label\":";
      (match d.label with
      | None -> add "null"
      | Some l ->
        add "\"";
        json_escape_into buf l;
        add "\"")
    in
    let rows keep render =
      let first = ref true in
      Array.iter
        (fun (d : def) ->
          if keep d.kind then begin
            if not !first then add ",";
            first := false;
            add "\n    ";
            render d
          end)
        defs;
      if not !first then add "\n  "
    in
    add "{\n";
    add (Printf.sprintf "  \"schema\": %S,\n" schema_version);
    add "  \"counters\": [";
    rows
      (function Kcounter -> true | _ -> false)
      (fun d ->
        add_name_label d;
        add (Printf.sprintf ",\"value\":%d}" (counter_value d)));
    add "],\n";
    add "  \"gauges\": [";
    rows
      (function Kgauge -> true | _ -> false)
      (fun d ->
        add_name_label d;
        add ",\"value\":";
        (match gauge_value d with
        | None -> add "null"
        | Some v -> add (json_float v));
        add "}");
    add "],\n";
    add "  \"histograms\": [";
    rows
      (function Khist _ -> true | _ -> false)
      (fun d ->
        match cell_of_def ctx d with
        | Chist h ->
          add_name_label d;
          add
            (Printf.sprintf ",\"count\":%d,\"sum\":%s,\"buckets\":[" h.total
               (json_float h.sum));
          Array.iteri
            (fun i c ->
              if i > 0 then add ",";
              let le =
                if i < Array.length h.bounds then json_float h.bounds.(i)
                else "null" (* overflow bucket: le = +inf *)
              in
              add (Printf.sprintf "{\"le\":%s,\"count\":%d}" le c))
            h.counts;
          add "]}"
        | _ -> assert false);
    add "]\n}\n";
    Buffer.contents buf

  let write_json ~path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_json_string ()))

  (* --- exposition: registry snapshot + Prometheus text rendering --- *)

  type histogram_snapshot = {
    h_count : int;
    h_sum : float;
    h_cumulative : (float * int) array;
  }

  type sample =
    | Counter_sample of int
    | Gauge_sample of float option
    | Histogram_sample of histogram_snapshot

  type exposition_row = {
    row_name : string;
    row_label : string option;
    row_sample : sample;
  }

  let expose () =
    let ctx = current () in
    let defs = with_reg_lock (fun () -> !registry) in
    Array.to_list defs
    |> List.map (fun (d : def) ->
           let row_sample =
             match cell_of_def ctx d with
             | Ccounter c -> Counter_sample c.c
             | Cgauge g -> Gauge_sample (if g.gset then Some g.g else None)
             | Chist h ->
               let acc = ref 0 in
               let cumulative =
                 Array.mapi
                   (fun i c ->
                     acc := !acc + c;
                     let le =
                       if i < Array.length h.bounds then h.bounds.(i)
                       else infinity
                     in
                     (le, !acc))
                   h.counts
               in
               Histogram_sample
                 { h_count = h.total; h_sum = h.sum; h_cumulative = cumulative }
           in
           { row_name = d.name; row_label = d.label; row_sample })

  let prom_sanitize buf s =
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
        | _ -> Buffer.add_char buf '_')
      s

  let prom_label_escape buf s =
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s

  (* Prometheus floats allow the non-finite spellings JSON forbids. *)
  let prom_float v =
    if Float.is_nan v then "NaN"
    else if v = infinity then "+Inf"
    else if v = neg_infinity then "-Inf"
    else Printf.sprintf "%.17g" v

  let prom_le v = if v = infinity then "+Inf" else Printf.sprintf "%g" v

  let to_prometheus_string ?(namespace = "dlosn") () =
    let rows = expose () in
    (* group rows by metric name, preserving first-registration order,
       so each family gets exactly one TYPE line *)
    let order = ref [] in
    let families = Hashtbl.create 32 in
    List.iter
      (fun row ->
        match Hashtbl.find_opt families row.row_name with
        | None ->
          Hashtbl.add families row.row_name (ref [ row ]);
          order := row.row_name :: !order
        | Some rs -> rs := row :: !rs)
      rows;
    let buf = Buffer.create 4096 in
    let family_name name ~suffix =
      let b = Buffer.create 48 in
      prom_sanitize b namespace;
      Buffer.add_char b '_';
      prom_sanitize b name;
      Buffer.add_string b suffix;
      Buffer.contents b
    in
    let add_labels = function
      | [] -> ()
      | kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf k;
            Buffer.add_string buf "=\"";
            prom_label_escape buf v;
            Buffer.add_char buf '"')
          kvs;
        Buffer.add_char buf '}'
    in
    let sample_line name labels value =
      Buffer.add_string buf name;
      add_labels labels;
      Buffer.add_char buf ' ';
      Buffer.add_string buf value;
      Buffer.add_char buf '\n'
    in
    let base_labels row =
      match row.row_label with None -> [] | Some l -> [ ("label", l) ]
    in
    List.iter
      (fun name ->
        let rows = List.rev !(Hashtbl.find families name) in
        match rows with
        | [] -> ()
        | first :: _ -> (
          match first.row_sample with
          | Counter_sample _ ->
            let n = family_name name ~suffix:"_total" in
            Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
            List.iter
              (fun row ->
                match row.row_sample with
                | Counter_sample v ->
                  sample_line n (base_labels row) (string_of_int v)
                | _ -> ())
              rows
          | Gauge_sample _ ->
            let set =
              List.filter
                (function
                  | { row_sample = Gauge_sample (Some _); _ } -> true
                  | _ -> false)
                rows
            in
            if set <> [] then begin
              let n = family_name name ~suffix:"" in
              Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
              List.iter
                (fun row ->
                  match row.row_sample with
                  | Gauge_sample (Some v) ->
                    sample_line n (base_labels row) (prom_float v)
                  | _ -> ())
                set
            end
          | Histogram_sample _ ->
            let n = family_name name ~suffix:"" in
            Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
            List.iter
              (fun row ->
                match row.row_sample with
                | Histogram_sample h ->
                  let labels = base_labels row in
                  Array.iter
                    (fun (le, c) ->
                      sample_line (n ^ "_bucket")
                        (labels @ [ ("le", prom_le le) ])
                        (string_of_int c))
                    h.h_cumulative;
                  sample_line (n ^ "_sum") labels (prom_float h.h_sum);
                  sample_line (n ^ "_count") labels (string_of_int h.h_count)
                | _ -> ())
              rows))
      (List.rev !order);
    Buffer.contents buf
end

(* --- span tracing --- *)

module Span = struct
  type t = {
    name : string;
    attrs : Log.field list;
    dur_ns : int;
    children : t list;
    span_id : string; (* 16 hex chars, unique within the process *)
    trace_id : string; (* 32 hex chars; "" when recorded outside a trace *)
    start_ns : int; (* epoch nanoseconds at open (wall clock) *)
    end_ns : int; (* epoch nanoseconds at close; always >= start_ns *)
  }

  let gen_span_id () = Printf.sprintf "%016Lx" (next_id64 ())

  let gen_trace_id () =
    Printf.sprintf "%016Lx%016Lx" (next_id64 ()) (next_id64 ())

  let set_trace_id tid = (current ()).trace <- tid
  let trace_id () = (current ()).trace

  let with_trace_id tid f =
    let ctx = current () in
    let saved = ctx.trace in
    ctx.trace <- Some tid;
    Fun.protect ~finally:(fun () -> ctx.trace <- saved) f

  (* --- streaming observer: every span close becomes an event --- *)

  type event = { span : t; root : bool }
  type subscription = int

  let subscribers : (int * (event -> unit)) list Atomic.t = Atomic.make []
  let sub_counter = Atomic.make 0

  let subscribe f =
    let id = Atomic.fetch_and_add sub_counter 1 in
    let rec add () =
      let cur = Atomic.get subscribers in
      if not (Atomic.compare_and_set subscribers cur ((id, f) :: cur)) then
        add ()
    in
    add ();
    id

  let unsubscribe id =
    let rec remove () =
      let cur = Atomic.get subscribers in
      let next = List.filter (fun (i, _) -> i <> id) cur in
      if not (Atomic.compare_and_set subscribers cur next) then remove ()
    in
    remove ()

  let rec view (n : span_node) =
    {
      name = n.sname;
      attrs = List.rev n.sattrs;
      dur_ns = n.sdur;
      children = List.rev_map view n.schildren;
      span_id = n.sid;
      trace_id = n.strace;
      start_ns = n.sstart;
      end_ns = n.send;
    }

  let with_span name ?attrs f =
    if not (enabled ()) then f ()
    else begin
      let ctx = current () in
      let node =
        {
          sname = name;
          sid = gen_span_id ();
          strace = (match ctx.trace with Some tid -> tid | None -> "");
          sattrs =
            (match attrs with None -> [] | Some g -> List.rev (g ()));
          sstart = now_ns ();
          send = 0;
          sdur = 0;
          schildren = [];
        }
      in
      ctx.open_spans <- node :: ctx.open_spans;
      let finish () =
        (* now_ns is wall-clock (gettimeofday): NTP can step it
           backwards mid-span, so clamp the end at the start. *)
        let e = now_ns () in
        let e = if e < node.sstart then node.sstart else e in
        node.send <- e;
        node.sdur <- e - node.sstart;
        (* Pop up to and including [node]; defensive against a body
           that leaked opens (it cannot happen via with_span itself). *)
        let rec pop = function
          | n :: rest when n == node -> rest
          | _ :: rest -> pop rest
          | [] -> []
        in
        ctx.open_spans <- pop ctx.open_spans;
        (match ctx.open_spans with
        | parent :: _ -> parent.schildren <- node :: parent.schildren
        | [] -> ctx.done_spans <- node :: ctx.done_spans);
        match Atomic.get subscribers with
        | [] -> ()
        | subs ->
          (* Fired on the recording domain, children before parents.
             Subscriber exceptions are swallowed: observers must never
             break the instrumented program. *)
          let ev = { span = view node; root = ctx.open_spans = [] } in
          List.iter (fun (_, f) -> try f ev with _ -> ()) subs
      in
      Fun.protect ~finally:finish f
    end

  let add_attr k v =
    if enabled () then
      match (current ()).open_spans with
      | node :: _ -> node.sattrs <- (k, v) :: node.sattrs
      | [] -> ()

  let roots () = List.rev_map view (current ()).done_spans

  let reset () =
    let ctx = current () in
    ctx.open_spans <- [];
    ctx.done_spans <- [];
    ctx.trace <- None

  type agg = { path : string; count : int; total_ns : int }

  (* Aggregated by slash-joined path, in first-visit (pre-order) order,
     so parents always precede their children — a deterministic,
     tree-shaped profile. *)
  let summary () =
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    let rec walk prefix (s : t) =
      let path = if prefix = "" then s.name else prefix ^ "/" ^ s.name in
      (match Hashtbl.find_opt tbl path with
      | None ->
        Hashtbl.add tbl path (1, s.dur_ns);
        order := path :: !order
      | Some (c, tot) -> Hashtbl.replace tbl path (c + 1, tot + s.dur_ns));
      List.iter (walk path) s.children
    in
    List.iter (walk "") (roots ());
    List.rev_map
      (fun path ->
        let count, total_ns = Hashtbl.find tbl path in
        { path; count; total_ns })
      !order

  let pp_summary ppf () =
    let rows = summary () in
    Format.fprintf ppf "@[<v>%-48s %8s %12s %12s@," "span" "count" "total ms"
      "mean ms";
    List.iter
      (fun { path; count; total_ns } ->
        let total_ms = float_of_int total_ns /. 1e6 in
        Format.fprintf ppf "%-48s %8d %12.2f %12.3f@," path count total_ms
          (total_ms /. float_of_int count))
      rows;
    Format.fprintf ppf "@]"

  let log_summary () =
    List.iter
      (fun { path; count; total_ns } ->
        let total_ms = float_of_int total_ns /. 1e6 in
        Log.info "span.summary"
          ~fields:(fun () ->
            [
              Log.str "span" path;
              Log.int "count" count;
              Log.float "total_ms" total_ms;
              Log.float "mean_ms" (total_ms /. float_of_int count);
            ]))
      (summary ())

  (* --- folded stacks (flamegraph.pl / speedscope "folded" format) --- *)

  (* Frame names must avoid ';' (stack separator) and ' ' (weight
     separator). A small attr allowlist decorates frames so per-story
     and per-model work stays distinguishable in the flame graph. *)
  let flame_attrs = [ "story"; "model"; "route" ]

  let folded_frame buf (s : t) =
    let sanitized str =
      String.iter
        (fun c ->
          Buffer.add_char buf
            (match c with ';' | ' ' | '\n' | '\r' | '\t' -> '_' | c -> c))
        str
    in
    sanitized s.name;
    List.iter
      (fun (k, v) ->
        if List.mem k flame_attrs then begin
          Buffer.add_char buf '[';
          sanitized k;
          Buffer.add_char buf '=';
          (match v with
          | Log.String sv -> sanitized sv
          | Log.Int i -> Buffer.add_string buf (string_of_int i)
          | Log.Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
          | Log.Bool b -> Buffer.add_string buf (string_of_bool b));
          Buffer.add_char buf ']'
        end)
      s.attrs

  (* (stack, self-time ns) rows in first-visit pre-order; repeated
     stacks merge by summing self time. Self time is the span duration
     minus its children's, clamped at 0 (children can overlap the
     parent's clock reading). *)
  let fold_stacks spans =
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    let rec walk prefix (s : t) =
      let buf = Buffer.create 64 in
      if prefix <> "" then begin
        Buffer.add_string buf prefix;
        Buffer.add_char buf ';'
      end;
      folded_frame buf s;
      let path = Buffer.contents buf in
      let child_ns =
        List.fold_left (fun acc c -> acc + c.dur_ns) 0 s.children
      in
      let self = Stdlib.max 0 (s.dur_ns - child_ns) in
      (match Hashtbl.find_opt tbl path with
      | None ->
        Hashtbl.add tbl path self;
        order := path :: !order
      | Some v -> Hashtbl.replace tbl path (v + self));
      List.iter (walk path) s.children
    in
    List.iter (walk "") spans;
    List.rev_map (fun path -> (path, Hashtbl.find tbl path)) !order

  let to_folded spans =
    let buf = Buffer.create 256 in
    List.iter
      (fun (path, self_ns) ->
        Buffer.add_string buf path;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int self_ns);
        Buffer.add_char buf '\n')
      (fold_stacks spans);
    Buffer.contents buf
end

(* --- shards: how Parallel.Pool gives each worker domain its own
   recording context, merged deterministically at teardown --- *)

module Shard = struct
  type t = context

  let create () = new_context ()

  let with_shard (t : t) f =
    let saved = Domain.DLS.get ctx_key in
    Domain.DLS.set ctx_key t;
    Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key saved) f

  let merge (src : t) =
    let dst = current () in
    let defs = with_reg_lock (fun () -> !registry) in
    Array.iteri
      (fun id copt ->
        match copt with
        | None -> ()
        | Some src_cell -> (
          match (src_cell, cell_of_def dst defs.(id)) with
          | Ccounter a, Ccounter b -> b.c <- b.c + a.c
          | Cgauge a, Cgauge b ->
            if a.gset then begin
              b.g <- a.g;
              b.gset <- true
            end
          | Chist a, Chist b ->
            Array.iteri
              (fun i v -> b.counts.(i) <- b.counts.(i) + v)
              a.counts;
            b.total <- b.total + a.total;
            b.sum <- b.sum +. a.sum
          | _ -> assert false))
      src.cells;
    src.cells <- [||];
    (* Completed span roots attach, in their original order, under the
       destination's innermost open span (or become roots). *)
    let spans = List.rev src.done_spans in
    (match dst.open_spans with
    | parent :: _ ->
      List.iter (fun s -> parent.schildren <- s :: parent.schildren) spans
    | [] ->
      List.iter (fun s -> dst.done_spans <- s :: dst.done_spans) spans);
    src.done_spans <- [];
    src.open_spans <- []

  let take_span_roots (t : t) =
    let roots = List.rev_map Span.view t.done_spans in
    t.done_spans <- [];
    roots
end

let reset () =
  Metrics.reset ();
  Span.reset ()

(* --- environment hook: DLSON_LOG comma-separated tokens --- *)

let env_var = "DLOSN_LOG"

let init_from_env () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some s ->
    set_enabled true;
    List.iter
      (fun tok ->
        match String.lowercase_ascii (String.trim tok) with
        | "" -> ()
        | "json" -> Log.set_sink Log.Json
        | "human" -> Log.set_sink Log.Human
        | tok -> (
          match Level.of_string tok with
          | Ok l -> Log.set_level (Some l)
          | Error _ -> () (* unknown tokens are ignored, by design *)))
      (String.split_on_char ',' s)

let () = init_from_env ()
