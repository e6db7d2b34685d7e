module Json = Gc_obs.Json
module Clock = Gc_prof.Clock

let header_bytes = 4

(* The cap on a frame's payload length, for every reader. *)
let max_frame = 1 lsl 20

type error = { offset : int; reason : string }

let string_of_error e = Printf.sprintf "offset %d: %s" e.offset e.reason

let fail offset fmt = Printf.ksprintf (fun reason -> { offset; reason }) fmt

(* ------------------------------------------------------------- encoding *)

let wire_max = (1 lsl 32) - 1

let encode json =
  let payload = Json.to_string json in
  let n = String.length payload in
  if n > wire_max then
    invalid_arg
      (Printf.sprintf "Frame.encode: %d-byte payload exceeds the wire limit" n);
  let b = Bytes.create (header_bytes + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------- decoding *)

let length_of_header s pos =
  let b i = Char.code s.[pos + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

(* The cap is enforced on the declared length, before the payload is
   sliced out — a length bomb never causes an allocation bigger than the
   error record. *)
let check_length len =
  if len = 0 then Error (fail 0 "empty frame (zero-length payload)")
  else if len > max_frame then
    Error
      (fail 0 "frame length %d exceeds the %d-byte frame cap" len max_frame)
  else Ok len

let decode ?(pos = 0) s =
  let total = String.length s in
  if pos < 0 || pos > total then
    Error (fail 0 "start position %d outside the %d-byte input" pos total)
  else if total - pos < header_bytes then
    Error
      (fail (total - pos) "truncated header: %d of %d length bytes"
         (total - pos) header_bytes)
  else
    match check_length (length_of_header s pos) with
    | Error e -> Error e
    | Ok len ->
        if total - pos - header_bytes < len then
          Error
            (fail (total - pos)
               "truncated frame: %d of %d payload bytes"
               (total - pos - header_bytes)
               len)
        else begin
          let payload = String.sub s (pos + header_bytes) len in
          match Json.parse payload with
          | Ok json -> Ok (json, pos + header_bytes + len)
          | Error e ->
              Error
                (fail
                   (header_bytes + e.Json.offset)
                   "bad frame payload: %s" e.Json.reason)
        end

(* ----------------------------------------------------------- socket I/O *)

type read_outcome =
  | Frame of Json.t
  | Eof
  | Bad_payload of error
  | Fault of error
  | Timed_out

(* Wait until [fd] is readable or [deadline] (absolute; None = forever)
   passes.  EINTR retries with the remaining budget. *)
let rec wait_readable fd deadline =
  let timeout =
    match deadline with
    | None -> -1.
    | Some d ->
        let remaining = d -. Clock.now_s () in
        if remaining <= 0. then 0. else remaining
  in
  if timeout = 0. && deadline <> None then `Timeout
  else
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> if deadline = None then wait_readable fd deadline else `Timeout
    | _ -> `Readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd deadline

(* Read exactly [len] bytes into [buf] at [off], honouring the deadline.
   [`Eof consumed] reports how many bytes had arrived before the stream
   ended. *)
let read_exact fd buf off len deadline =
  let rec go off remaining consumed =
    if remaining = 0 then `Ok
    else
      match wait_readable fd deadline with
      | `Timeout -> `Timeout consumed
      | `Readable -> (
          match Unix.read fd buf off remaining with
          | 0 -> `Eof consumed
          | n -> go (off + n) (remaining - n) (consumed + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              go off remaining consumed
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
              `Eof consumed)
  in
  go off len 0

let read_fd ?idle_timeout ~frame_timeout fd =
  let now = Clock.now_s () in
  let header = Bytes.create header_bytes in
  (* First byte: idle budget.  Rest of the frame: the frame budget, so a
     peer cannot hold a reader by trickling the header one byte at a
     time. *)
  let first =
    read_exact fd header 0 1 (Option.map (fun t -> now +. t) idle_timeout)
  in
  match first with
  | `Timeout _ -> Timed_out
  | `Eof 0 -> Eof
  | `Eof _ -> assert false (* read 1 byte: consumed is 0 on EOF *)
  | `Ok -> (
      let deadline = Some (Clock.now_s () +. frame_timeout) in
      match read_exact fd header 1 (header_bytes - 1) deadline with
      | `Timeout consumed ->
          ignore consumed;
          Timed_out
      | `Eof consumed ->
          Fault
            (fail (1 + consumed) "truncated header: %d of %d length bytes"
               (1 + consumed) header_bytes)
      | `Ok -> (
          match
            check_length (length_of_header (Bytes.unsafe_to_string header) 0)
          with
          | Error e -> Fault e
          | Ok len -> (
              let payload = Bytes.create len in
              match read_exact fd payload 0 len deadline with
              | `Timeout _ -> Timed_out
              | `Eof consumed ->
                  Fault
                    (fail
                       (header_bytes + consumed)
                       "truncated frame: %d of %d payload bytes" consumed len)
              | `Ok -> (
                  match Json.parse (Bytes.unsafe_to_string payload) with
                  | Ok json -> Frame json
                  | Error e ->
                      Bad_payload
                        (fail
                           (header_bytes + e.Json.offset)
                           "bad frame payload: %s" e.Json.reason)))))

(* Write an already-encoded frame.  Split from [write_fd] so callers
   that want to account encode time and write time separately (the
   server's "encode"/"reply" spans) can. *)
let write_raw fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off remaining =
    if remaining > 0 then
      match Unix.write fd b off remaining with
      | n -> go (off + n) (remaining - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
  in
  go 0 (Bytes.length b)

let write_fd fd json = write_raw fd (encode json)
