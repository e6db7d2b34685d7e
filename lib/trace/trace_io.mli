(** Plain-text and binary trace serialization, with hardened decoders.

    Text format (line-oriented, ASCII):
    {v
    gctrace 1
    blocks uniform <B>
    requests <n>
    <item> <item> ... (whitespace separated, any line breaking)
    v}
    or, for explicit partitions:
    {v
    gctrace 1
    blocks explicit <B> <nblocks>
    <item> <item> ...   (one line per block)
    requests <n>
    ...
    v}

    Decoding is built around a strict, [Result]-returning core with
    positional diagnostics (line number for text, byte offset for binary).
    Reads from channels stream through a fixed-size buffer, so decoding a
    file never materializes its serialized form in memory, and no
    allocation is sized from an untrusted length field: a hostile header
    claiming 2^60 requests fails with a clean [Error] after reading only
    the bytes actually present.  Every decoder returns a [Result]; none
    raises on malformed input. *)

(** {1 Diagnostics} *)

type position =
  | Line of int  (** 1-based line in a text trace. *)
  | Byte of int  (** 0-based byte offset in a binary trace. *)
  | Io  (** The failure happened opening or reading the file itself. *)

type error = { position : position; reason : string }

val string_of_error : error -> string
(** ["line 3: expected integer, got \"x\""] / ["byte 17: varint overflow"]. *)

(** {1 Encoding} *)

val to_string : Trace.t -> string
val to_channel : out_channel -> Trace.t -> unit

val save : string -> Trace.t -> unit
(** Write the text form to a file path. *)

(** {1 Strict decoding}

    All decoders consume the entire input: trailing non-whitespace after
    the declared requests is an error, as is a request count that the
    input cannot back. *)

val of_string_result : string -> (Trace.t, error) result

val of_channel_result : in_channel -> (Trace.t, error) result
(** Streaming: reads through a fixed 64 KiB buffer. *)

val load_any_result : string -> (Trace.t, error) result
(** Load a file, dispatching on its extension: [.gctb] is binary, anything
    else text.  I/O failures yield [Error] with [position = Io]. *)

(** {1 Lenient decoding}

    Recovery mode for damaged traces: the header must still parse, but
    malformed records are skipped rather than fatal.  For the text format
    that means non-integer or negative request tokens are dropped (and
    block lines are cleaned of unparsable or duplicate items); for the
    binary format, decoding stops at the first undecodable byte and the
    intact prefix is kept.  The report says exactly what was lost. *)

type recovery = {
  trace : Trace.t;
  dropped : int;  (** Requests lost: malformed, negative, or truncated. *)
  diagnostics : error list;
      (** The first 20 individual problems, in input order. *)
}

val of_string_lenient : string -> (recovery, error) result
val of_bytes_lenient : bytes -> (recovery, error) result

val load_lenient : string -> (recovery, error) result
(** Extension-dispatched lenient load, like {!load_any_result}. *)

(** {1 Binary format}

    A compact varint encoding ("GCTB" magic): requests are zigzag-encoded
    deltas from the previous request, so sequential and spatially local
    traces compress to ~1 byte per access.  Explicit block maps are stored
    as per-block item lists.

    Version 2 (written by {!to_bytes}) ends with an 8-byte little-endian
    FNV-1a64 checksum of every preceding byte, so torn writes and bit rot
    are detected rather than decoded into a silently different trace.
    Version 1 payloads (no footer) are still read. *)

val to_bytes : Trace.t -> bytes

val of_bytes_result : bytes -> (Trace.t, error) result

val load_binary_result : string -> (Trace.t, error) result
(** Streaming binary read with incremental checksum verification. *)

val save_binary : string -> Trace.t -> unit
