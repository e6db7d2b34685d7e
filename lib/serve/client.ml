type addr =
  | Unix_path of string
  | Tcp of string * int

type conn = Unix.file_descr

type error_kind = Refused | Timeout | Reset | Protocol

type error = { kind : error_kind; message : string }

let kind_name = function
  | Refused -> "refused"
  | Timeout -> "timeout"
  | Reset -> "reset"
  | Protocol -> "protocol"

let string_of_client_error e = Printf.sprintf "%s: %s" (kind_name e.kind) e.message

let addr_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* Connection-establishment failures by errno.  ENOENT is what a
   Unix-domain connect to a never-bound (or already-removed) socket path
   raises, so it classifies with ECONNREFUSED: the server is not there. *)
let kind_of_connect_errno = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ENOTDIR | Unix.EACCES
  | Unix.EADDRNOTAVAIL | Unix.ENETUNREACH | Unix.EHOSTUNREACH ->
      Refused
  | Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINPROGRESS ->
      Timeout
  | Unix.ECONNRESET | Unix.EPIPE -> Reset
  | _ -> Refused

let sockaddr = function
  | Unix_path p -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX p)
  | Tcp (host, port) -> (
      match Unix.inet_addr_of_string host with
      | a -> Ok (Unix.PF_INET, Unix.ADDR_INET (a, port))
      | exception Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ ->
              Ok (Unix.PF_INET, Unix.ADDR_INET (a, port))
          | _ ->
              Error
                {
                  kind = Refused;
                  message = Printf.sprintf "cannot resolve host %S" host;
                }))

(* A server dying mid-exchange must surface as an EPIPE for the
   classifier ([Reset]), not kill the client process with SIGPIPE;
   set once, on first connect — the server side does the same in
   [Server.create]. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let connect_result ?(timeout = 5.) addr =
  Lazy.force ignore_sigpipe;
  match sockaddr addr with
  | Error e -> Error e
  | Ok (domain, sa) -> (
      let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
        Unix.connect fd sa
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            {
              kind = kind_of_connect_errno e;
              message =
                Printf.sprintf "cannot connect to %s: %s" (addr_string addr)
                  (Unix.error_message e);
            }
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e)

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()
let fd c = c

let send_result fd json =
  match Frame.write_fd fd json with
  | () -> Ok ()
  | exception Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as e), _, _) ->
      Error { kind = Reset; message = Unix.error_message e }
  | exception Unix.Unix_error (e, _, _) ->
      Error
        {
          kind = kind_of_connect_errno e;
          message = Printf.sprintf "send failed: %s" (Unix.error_message e);
        }

let recv_result ?(timeout = 60.) fd =
  match Frame.read_fd ~idle_timeout:timeout ~frame_timeout:timeout fd with
  | Frame.Frame json -> Ok json
  | Frame.Eof -> Error { kind = Reset; message = "connection closed by server" }
  | Frame.Bad_payload e | Frame.Fault e ->
      Error
        { kind = Protocol; message = "protocol fault: " ^ Frame.string_of_error e }
  | Frame.Timed_out ->
      Error
        {
          kind = Timeout;
          message = Printf.sprintf "no reply within %gs" timeout;
        }
  | exception Unix.Unix_error (e, _, _) ->
      Error
        {
          kind = Reset;
          message = Printf.sprintf "recv failed: %s" (Unix.error_message e);
        }

let request_result ?timeout addr json =
  let ( let* ) = Result.bind in
  let* fd =
    connect_result ?timeout:(Option.map (fun t -> Float.min t 5.) timeout) addr
  in
  Fun.protect
    ~finally:(fun () -> close fd)
    (fun () ->
      let* () = send_result fd json in
      recv_result ?timeout fd)
