(** Length-prefixed JSON framing for the simulation service.

    The wire format is deliberately minimal: a 4-byte big-endian unsigned
    payload length, then exactly that many bytes of RFC 8259 JSON (one
    document per frame, parsed by the hardened {!Gc_obs.Json} decoder with
    its strict number grammar and depth limit).  Every defence is explicit:

    - the length is checked against the 1 MiB frame cap {e before} any
      payload buffer is allocated, so a length bomb ([0xFFFFFFFF] followed by
      nothing) costs four bytes of reading and one error record;
    - a zero-length frame is a protocol error (a frame must carry a
      document);
    - decode errors carry the byte offset of the fault — frame-relative on
      string decodes, including the JSON parser's own offsets shifted past
      the header — so adversarial-input tests can assert a positioned
      diagnostic for every malformed input;
    - socket reads take a wall-clock budget for the {e whole} frame, so a
      slow-loris peer dribbling one byte a second is cut off with a
      diagnostic instead of pinning a reader forever. *)

val header_bytes : int
(** 4. *)

type error = { offset : int; reason : string }
(** A positioned decode diagnostic; [offset] is relative to the start of
    the frame (offset 0 = first header byte, {!header_bytes} = first
    payload byte). *)

val string_of_error : error -> string
(** ["offset N: reason"]. *)

val encode : Gc_obs.Json.t -> string
(** Header plus compact JSON payload.  Raises [Invalid_argument] if the
    payload exceeds the wire format's 2^32 - 1 byte ceiling. *)

val decode : ?pos:int -> string -> (Gc_obs.Json.t * int, error) result
(** Decode one frame starting at byte [pos] (default 0), returning the
    document and the position just past the frame.  Errors are positioned
    relative to [pos].  Never allocates more than the payload length of a
    frame that passes the cap check. *)

(** {1 Socket I/O} *)

type read_outcome =
  | Frame of Gc_obs.Json.t
  | Eof  (** Clean end of stream at a frame boundary. *)
  | Bad_payload of error
      (** A complete frame arrived but its payload is not valid JSON.  The
          framing itself is intact, so the server can answer with a framed
          error and keep the connection. *)
  | Fault of error
      (** Protocol fault: bad length, over-cap frame, or EOF mid-frame.
          The stream position is unrecoverable; answer and close. *)
  | Timed_out
      (** The frame did not arrive complete within the budget
          (slow-loris), or no frame began within [idle_timeout]. *)

val read_fd :
  ?idle_timeout:float ->
  frame_timeout:float ->
  Unix.file_descr ->
  read_outcome
(** Read one frame.  [idle_timeout] bounds the wait for the first byte
    (default: wait forever); once a frame has begun, the whole frame must
    arrive within [frame_timeout] seconds. *)

val write_raw : Unix.file_descr -> string -> unit
(** Write an already-{!encode}d frame, retrying partial writes and
    [EINTR].  Raises [Unix.Unix_error] (e.g. [EPIPE]) if the peer is
    gone.  Lets callers account encode time and write time separately
    (the server's "encode"/"reply" tracing spans). *)

val write_fd : Unix.file_descr -> Gc_obs.Json.t -> unit
(** {!encode} then {!write_raw}. *)
