(** On-disk representation of a fit record.

    One record captures everything needed to warm-start prediction
    serving without re-running calibration: the fitted parameters, the
    t = 1 observation knots phi was built from, the solver
    configuration the fit ran under, the training horizon, accuracy
    metrics and provenance.  Floats are stored as their IEEE-754 bit
    patterns (little-endian), so a decoded record is bit-equal to the
    encoded one — reloading a fit never perturbs its predictions.

    The payload encoding is versioned ({!version}); framing (length +
    CRC32 header) is shared by the WAL and the snapshot file, see
    {!frame} / {!read_frame}. *)

type record = {
  id : string;  (** cache / lookup key (stable across restarts) *)
  story : string;  (** human label, e.g. ["story-123"]; may be empty *)
  source : string;  (** provenance: ["serve"], ["cli"], ["hook"], ... *)
  model : string;
      (** registry name of the model that produced the fit (["dl"] or
          ["dl-linear"]; v1 records decode as ["dl"]).  For
          ["dl-linear"] the carrying capacity in [params] is the
          placeholder 1 from [Linear_model.to_dl]. *)
  created_ns : int;  (** wall-clock creation time, integer ns *)
  params : Dl.Params.t;  (** fitted (d, K, r, l, L) *)
  phi_xs : float array;  (** phi knot abscissae (observed distances) *)
  phi_densities : float array;  (** observed t = 1 densities *)
  phi_construction : Dl.Initial.construction;
  scheme : Dl.Model.scheme;  (** solver scheme the fit ran under *)
  nx : int;  (** fitting grid resolution *)
  dt : float;  (** fitting time step *)
  reference_stepper : bool;
      (** always false in new records: there is one solver path now.
          Kept so records written while a reference-stepper switch
          existed (which may carry true) still decode and compare
          unchanged; the encoding keeps its byte. *)
  fit_times : float array;  (** training horizon (observation hours) *)
  training_error : float;
  evaluations : int;  (** PDE solves spent by the fit *)
  starts : int;  (** Nelder--Mead restarts *)
  trace_id : string;
      (** trace id of the request/daemon run that produced the fit
          (empty when tracing was off or for pre-v3 records) — lets a
          restarted server link its serving spans back to the
          originating fit's trace *)
  obs_cursor : float;
      (** live-ingestion watermark (event-time hours) when the fit was
          checkpointed; 0 for batch fits and pre-v3 records.  A
          restarted server hands it back to the replay driver so
          ingestion resumes where the stream left off. *)
}

val version : int
(** Payload encoding version written by {!encode} (currently 3, which
    added the [trace_id] and [obs_cursor] fields; v2 added [model]). *)

val min_version : int
(** Oldest payload version {!decode} still accepts (1; such records
    carry no model name and decode with [model = "dl"]).  File headers
    in the same range are accepted too, so a pre-v2 store opens
    unchanged. *)

val phi : record -> Dl.Initial.t
(** Rebuild the initial-density function from the stored knots.  The
    construction is deterministic, so the rebuilt phi evaluates
    bit-identically to the one the fit used.
    @raise Invalid_argument if the stored knots are not a valid
    observation set (possible only for hand-corrupted records — CRC
    framing rejects bit rot). *)

val solver_signature : scheme:Dl.Model.scheme -> nx:int -> dt:float -> string
(** Canonical string describing a solver configuration, used in fit
    cache keys (and derived record ids) so that requests differing
    only in solver config hash differently.  It still ends in
    [;ref=false], the retired reference-stepper flag, so keys derived
    before that switch was removed stay valid. *)

val scheme_name : Dl.Model.scheme -> string
(** ["ftcs"], ["crank-nicolson"] or ["strang"]. *)

val scheme_of_name : string -> (Dl.Model.scheme, string) result

val equal : record -> record -> bool
(** Structural equality with floats compared by bit pattern (NaN-safe,
    distinguishes [-0.] from [0.]). *)

(** {2 Payload encoding} *)

val encode : record -> string
(** Versioned binary payload (no framing). *)

val decode : string -> (record, string) result
(** Inverse of {!encode}; also accepts any older payload version down
    to {!min_version}.  Rejects unknown versions, truncated payloads
    and trailing garbage. *)

(** {2 Framing}

    A frame is [[u32 payload-length][u32 CRC32(payload)][payload]],
    little-endian.  Both store files are sequences of frames after
    their 12-byte header ([8-byte magic + u32 format version]). *)

val crc32 : ?crc:int -> string -> int
(** CRC-32 (IEEE 802.3, the zlib polynomial).  [crc] chains a running
    checksum (default 0). *)

val frame : string -> string
(** Wrap a payload in its frame. *)

type frame_result =
  | Frame of string * int  (** payload, offset just past the frame *)
  | End  (** clean end of data *)
  | Corrupt of string  (** truncated tail, bad length or CRC mismatch *)

val read_frame : string -> pos:int -> frame_result
(** Scan one frame from [buf] at [pos].  Anything short, over-long
    (a payload over 16 MiB, which {!frame} also refuses) or failing
    its CRC is [Corrupt] — the caller stops there and treats
    the remainder as a torn tail. *)

val header : magic:string -> string
(** 12-byte file header: [magic] (8 bytes) + u32 {!version}. *)

val check_header : magic:string -> string -> (int, string) result
(** Validate a file's header; returns the offset of the first frame. *)
