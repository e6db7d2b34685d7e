(** Client side of the simulation service: connect, frame, await.

    Used by [gcserved client], the test harnesses, and anything scripted.
    Every call takes a wall-clock [timeout] so a dead or wedged server can
    never hang the caller — the mirror image of the server's own
    slow-loris guard.

    Every call classifies its failures into {!error_kind}s, which is what
    retry policy hangs off ({!Gc_resil.Resilient_client} retries
    [Refused]/[Timeout]/[Reset], never [Protocol]). *)

type addr =
  | Unix_path of string
  | Tcp of string * int

type conn

type error_kind =
  | Refused  (** No server: connect refused, socket path absent, unreachable. *)
  | Timeout  (** Connect or whole-reply deadline expired. *)
  | Reset  (** The connection existed and then went away (EOF/EPIPE/RST). *)
  | Protocol  (** The bytes arrived but are not a valid frame; not retryable. *)

type error = { kind : error_kind; message : string }

val kind_name : error_kind -> string
(** ["refused" | "timeout" | "reset" | "protocol"]. *)

val string_of_client_error : error -> string
(** ["kind: message"]. *)

val connect_result : ?timeout:float -> addr -> (conn, error) result
(** Classified connect.  [timeout] (default 5s) bounds the TCP connect. *)

val close : conn -> unit

val send_result : conn -> Gc_obs.Json.t -> (unit, error) result
(** Frame and send one document; a gone peer is [Reset]. *)

val recv_result : ?timeout:float -> conn -> (Gc_obs.Json.t, error) result
(** Await one framed document of at most 1 MiB, {!Frame}'s cap
    (default timeout 60s): EOF is [Reset], framing faults are
    [Protocol], expiry is [Timeout]. *)

val request_result :
  ?timeout:float ->
  addr ->
  Gc_obs.Json.t ->
  (Gc_obs.Json.t, error) result
(** One-shot: connect, send, await the reply, close. *)

val fd : conn -> Unix.file_descr
(** The raw socket, for adversarial tests that need to write garbage. *)
