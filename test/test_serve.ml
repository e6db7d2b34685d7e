(* The simulation service under test: frame-codec units and fuzzers
   (GC_FUZZ_COUNT scales the corpus, the @fuzz alias raises it), protocol
   validation, and an in-process adversarial client suite that boots real
   servers on throwaway Unix sockets — malformed JSON, oversized frames,
   slow-loris dribble, mid-request disconnects, overload shedding, and
   graceful drain, asserting the daemon always answers with a well-formed
   framed reply and never wedges.

   The "soak" group is the full e2e drill against the ../bin/gcserved.exe
   binary: concurrent + adversarial clients, SIGTERM mid-load, clean-drain
   exit 0 with a shutdown manifest, and the second-signal 130 hard exit.
   It only runs when GC_SERVE_SOAK is set — `dune build @serve-soak`. *)

module Json = Gc_obs.Json
module Frame = Gc_serve.Frame
module Protocol = Gc_serve.Protocol
module Server = Gc_serve.Server
module Client = Gc_serve.Client

let fuzz_count =
  match Option.bind (Sys.getenv_opt "GC_FUZZ_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 2500

let fuzz name gen prop = Test_util.qcheck ~count:fuzz_count name gen prop

(* ----------------------------------------------------------- JSON poking *)

let field name = function
  | Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let int_field name j =
  match field name j with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "reply has no int field %S in %s" name (Json.to_string j)

let string_field name j =
  match field name j with
  | Some (Json.String s) -> s
  | _ ->
      Alcotest.failf "reply has no string field %S in %s" name (Json.to_string j)

(* The value of a labelless counter/gauge row in a stats reply's metric
   dump ([registry.to_json] shape). *)
let metric_value stats name =
  match field "metrics" stats with
  | Some (Json.Array rows) -> (
      let hit = function
        | Json.Obj _ as row -> string_field "name" row = name
        | _ -> false
      in
      match List.find_opt hit rows with
      | Some row -> int_field "value" row
      | None -> Alcotest.failf "no metric %S in stats" name)
  | _ -> Alcotest.fail "stats reply has no metrics array"

let reply_exn = function
  | Ok j -> (
      match Protocol.reply_of_json j with
      | Ok (id, reply) -> (id, reply)
      | Error msg -> Alcotest.failf "malformed reply %s: %s" (Json.to_string j) msg)
  | Error e ->
      Alcotest.failf "request failed: %s" (Client.string_of_client_error e)

let kind_of = function
  | _, Protocol.Ok_result _ -> "ok"
  | _, Protocol.Err (kind, _) -> kind

let result_exn r =
  match reply_exn r with
  | _, Protocol.Ok_result result -> result
  | _, Protocol.Err (kind, msg) -> Alcotest.failf "error reply %s: %s" kind msg

(* A transport failure on a connection the case expects to work fails
   the test. *)
let connect_exn addr =
  match Client.connect_result addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Client.string_of_client_error e)

let send_exn c json =
  match Client.send_result c json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Client.string_of_client_error e)

(* ------------------------------------------------------- request builders *)

let load ?(workload = "zipf") ?(n = 5000) () =
  { Protocol.workload; n; universe = 4096; block_size = 16 }

let sim_req ?id ?budget_ms ?(policy = "lru") ?(k = 256) ?load:(l = load ())
    ?(check = false) () =
  Protocol.request_to_json
    {
      Protocol.id;
      op = Protocol.Sim { Protocol.policy; k; seed = 7; load = l; check };
      budget_ms;
    }

let curve_req ?id ?budget_ms ?(policy = "lru") ?(ks = [ 64; 256 ]) () =
  Protocol.request_to_json
    {
      Protocol.id;
      op =
        Protocol.Miss_curve
          { Protocol.curve_policy = policy; ks; curve_seed = 7; curve_load = load () };
      budget_ms;
    }

let op_req name = Json.Obj [ ("op", Json.String name) ]

(* --------------------------------------------------------- frame: units *)

let docs =
  [
    Json.Null;
    Json.Bool true;
    Json.Int (-42);
    Json.String "he\"llo\n";
    Json.Array [ Json.Int 1; Json.Float 2.5 ];
    sim_req ~id:(Json.Int 9) ();
  ]

let test_frame_roundtrip () =
  List.iter
    (fun doc ->
      let s = Frame.encode doc in
      match Frame.decode s with
      | Ok (back, consumed) ->
          Alcotest.(check string)
            "roundtrip" (Json.to_string doc) (Json.to_string back);
          Alcotest.(check int) "consumed whole frame" (String.length s) consumed
      | Error e -> Alcotest.failf "decode failed: %s" (Frame.string_of_error e))
    docs

let test_frame_stream () =
  let s = String.concat "" (List.map Frame.encode docs) in
  let rec go pos acc =
    if pos = String.length s then List.rev acc
    else
      match Frame.decode ~pos s with
      | Ok (doc, next) -> go next (doc :: acc)
      | Error e ->
          Alcotest.failf "stream decode at %d: %s" pos (Frame.string_of_error e)
  in
  Alcotest.(check (list string))
    "all frames, in order"
    (List.map Json.to_string docs)
    (List.map Json.to_string (go 0 []))

let check_decode_error ~reason_has s =
  match Frame.decode s with
  | Ok (doc, _) -> Alcotest.failf "decoded %s from garbage" (Json.to_string doc)
  | Error e ->
      if not (Test_util.contains e.Frame.reason reason_has) then
        Alcotest.failf "diagnostic %S does not mention %S"
          (Frame.string_of_error e) reason_has

let test_frame_errors () =
  check_decode_error ~reason_has:"truncated header" "\x00\x00\x01";
  check_decode_error ~reason_has:"empty frame" "\x00\x00\x00\x00";
  check_decode_error ~reason_has:"truncated header" "";
  (* Complete frame, junk payload: positioned past the header. *)
  (match Frame.decode "\x00\x00\x00\x03{x}" with
  | Ok _ -> Alcotest.fail "decoded junk payload"
  | Error e ->
      Alcotest.(check bool)
        "payload error positioned past header" true
        (e.Frame.offset >= Frame.header_bytes));
  (* Truncated payload. *)
  check_decode_error ~reason_has:"truncated frame" "\x00\x00\x00\x09{\"a\":1}"

(* Frame's payload cap, 1 MiB. *)
let frame_cap = 1 lsl 20

let test_frame_length_bomb () =
  (* A maximal declared length with no payload: rejected on the declared
     length alone, allocating nothing close to the claim. *)
  let bomb = "\xff\xff\xff\xff" in
  (* Empty the minor heap first so no collection lands inside the
     measurement bracket and inflates the delta. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  check_decode_error ~reason_has:"frame cap" bomb;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "bounded allocation (%.0f bytes)" allocated)
    true
    (allocated < 65_536.);
  (* A well-formed frame just over the 1 MiB cap, same story. *)
  let over =
    Frame.encode (Json.String (String.make frame_cap 'x'))
  in
  match Frame.decode over with
  | Error e ->
      Alcotest.(check bool)
        "names the cap" true
        (Test_util.contains e.Frame.reason
           (Printf.sprintf "%d-byte frame cap" frame_cap))
  | Ok _ -> Alcotest.fail "decoded a frame over the cap"

(* ---------------------------------------------- frame: deadline edges *)

let outcome_name = function
  | Frame.Frame _ -> "frame"
  | Frame.Eof -> "eof"
  | Frame.Bad_payload e -> "bad payload: " ^ Frame.string_of_error e
  | Frame.Fault e -> "fault: " ^ Frame.string_of_error e
  | Frame.Timed_out -> "timed out"

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      (try Unix.close b with Unix.Unix_error _ -> ()))
    (fun () -> f a b)

let write_str fd s =
  let (_ : int) = Unix.write_substring fd s 0 (String.length s) in
  ()

let test_frame_zero_budget () =
  (* A zero or negative whole-frame budget is already expired: once the
     frame has begun, the reader must answer Timed_out immediately — not
     hang, not crash, not mistake the expiry for EOF.  This pins the
     wait_readable contract that an expired deadline wins even when
     bytes are sitting in the socket buffer. *)
  List.iter
    (fun budget ->
      with_socketpair (fun a b ->
          write_str a (Frame.encode (op_req "health"));
          let t0 = Unix.gettimeofday () in
          match Frame.read_fd ~frame_timeout:budget b with
          | Frame.Timed_out ->
              Alcotest.(check bool)
                (Printf.sprintf "budget %g returns promptly" budget)
                true
                (Unix.gettimeofday () -. t0 < 1.)
          | o -> Alcotest.failf "budget %g: got %s" budget (outcome_name o)))
    [ 0.; -1. ]

let test_frame_deadline_mid_frame () =
  (* The deadline lands between two reads: the frame keeps growing (so
     every select wakes with data) but is never complete before the
     budget — and completing it *after* the budget must not resurrect
     the read.  Timed_out, at the deadline, not at the late bytes. *)
  with_socketpair (fun a b ->
      let budget = 0.3 in
      let full = Frame.encode (sim_req ()) in
      let feeder =
        Thread.create
          (fun () ->
            write_str a (String.sub full 0 5);
            Thread.delay (budget /. 2.);
            write_str a (String.sub full 5 3);
            Thread.delay budget;
            (* Frame completes well past the deadline. *)
            try write_str a (String.sub full 8 (String.length full - 8))
            with Unix.Unix_error _ -> ())
          ()
      in
      let t0 = Unix.gettimeofday () in
      let outcome = Frame.read_fd ~frame_timeout:budget b in
      let elapsed = Unix.gettimeofday () -. t0 in
      Thread.join feeder;
      (match outcome with
      | Frame.Timed_out -> ()
      | o -> Alcotest.failf "mid-frame expiry: got %s" (outcome_name o));
      Alcotest.(check bool)
        (Printf.sprintf "cut at the deadline (%.3fs)" elapsed)
        true
        (elapsed >= budget -. 0.05 && elapsed < budget +. 0.4))

let test_frame_eintr_storm () =
  (* A 2ms SIGALRM storm interrupts every select; the EINTR retry path
     must recompute the remaining budget each time, so the total
     deadline still holds — neither an early Timed_out (treating EINTR
     as expiry) nor a hang (restarting the full budget per retry). *)
  let storm = { Unix.it_interval = 0.002; it_value = 0.002 } in
  let old_handler = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let old_timer = Unix.setitimer Unix.ITIMER_REAL storm in
  Fun.protect
    ~finally:(fun () ->
      let (_ : Unix.interval_timer_status) =
        Unix.setitimer Unix.ITIMER_REAL old_timer
      in
      Sys.set_signal Sys.sigalrm old_handler)
    (fun () ->
      with_socketpair (fun a b ->
          let budget = 0.3 in
          write_str a "\x00\x00";
          let t0 = Unix.gettimeofday () in
          let outcome = Frame.read_fd ~frame_timeout:budget b in
          let elapsed = Unix.gettimeofday () -. t0 in
          (match outcome with
          | Frame.Timed_out -> ()
          | o -> Alcotest.failf "EINTR storm: got %s" (outcome_name o));
          Alcotest.(check bool)
            (Printf.sprintf "deadline survived the storm (%.3fs)" elapsed)
            true
            (elapsed >= budget -. 0.05 && elapsed < budget +. 1.0)))

(* -------------------------------------------------------- frame: fuzzers *)

(* Every property asserts totality (no exception) plus a positioned,
   non-empty diagnostic on rejection. *)
let total_decode s =
  match Frame.decode s with
  | Ok _ -> true
  | Error e ->
      String.length e.Frame.reason > 0
      && e.Frame.offset >= 0
      && e.Frame.offset <= String.length s + Frame.header_bytes
  | exception e ->
      QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)

let arbitrary_bytes =
  QCheck.string_gen_of_size QCheck.Gen.(0 -- 200) QCheck.Gen.char

let fuzz_random_bytes =
  fuzz "decode is total on random bytes" arbitrary_bytes total_decode

let fuzz_truncations =
  (* Truncating a valid frame anywhere strictly inside it must produce a
     positioned error, never a decode or a crash. *)
  let gen =
    QCheck.(pair (int_range 0 (List.length docs - 1)) (float_range 0. 1.))
  in
  fuzz "truncated frames are positioned errors" gen (fun (which, frac) ->
      let full = Frame.encode (List.nth docs which) in
      let cut = int_of_float (frac *. float_of_int (String.length full - 1)) in
      let s = String.sub full 0 cut in
      match Frame.decode s with
      | Ok (doc, _) ->
          QCheck.Test.fail_reportf "decoded %s from a %d/%d-byte truncation"
            (Json.to_string doc) cut (String.length full)
      | Error e -> String.length e.Frame.reason > 0 && e.Frame.offset >= 0)

let fuzz_length_bombs =
  (* A declared length beyond the cap is always rejected naming the cap,
     without allocating anything near the declared length. *)
  let lo = frame_cap + 1 in
  let gen = QCheck.(pair (int_range lo Stdlib.max_int) small_string) in
  fuzz "length bombs never allocate" gen (fun (declared, junk) ->
      let declared = lo + (declared mod ((1 lsl 32) - lo)) in
      let b = Bytes.create 4 in
      Bytes.set b 0 (Char.chr ((declared lsr 24) land 0xFF));
      Bytes.set b 1 (Char.chr ((declared lsr 16) land 0xFF));
      Bytes.set b 2 (Char.chr ((declared lsr 8) land 0xFF));
      Bytes.set b 3 (Char.chr (declared land 0xFF));
      let s = Bytes.to_string b ^ junk in
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      match Frame.decode s with
      | Ok _ -> QCheck.Test.fail_reportf "accepted a %d-byte claim" declared
      | Error e ->
          let allocated = Gc.allocated_bytes () -. before in
          if allocated >= 65_536. then
            QCheck.Test.fail_reportf "allocated %.0f bytes rejecting the bomb"
              allocated;
          Test_util.contains e.Frame.reason "frame cap")

(* ------------------------------------------------------------- protocol *)

let test_protocol_roundtrip () =
  let reqs =
    [
      { Protocol.id = Some (Json.Int 3); op = Protocol.Health; budget_ms = None };
      {
        Protocol.id = Some (Json.String "a");
        op = Protocol.Stats;
        budget_ms = Some 250;
      };
      {
        Protocol.id = None;
        op =
          Protocol.Sim
            {
              Protocol.policy = "arc";
              k = 128;
              seed = 5;
              load = load ~workload:"phases" ~n:777 ();
              check = true;
            };
        budget_ms = Some 1500;
      };
      {
        Protocol.id = Some (Json.Int 0);
        op =
          Protocol.Miss_curve
            {
              Protocol.curve_policy = "lru";
              ks = [ 1; 2; 3 ];
              curve_seed = 9;
              curve_load = load ();
            };
        budget_ms = None;
      };
    ]
  in
  List.iter
    (fun req ->
      match Protocol.parse_request (Protocol.request_to_json req) with
      | Ok back ->
          Alcotest.(check string)
            "roundtrip"
            (Json.to_string (Protocol.request_to_json req))
            (Json.to_string (Protocol.request_to_json back))
      | Error msg -> Alcotest.failf "roundtrip rejected: %s" msg)
    reqs

let check_rejected ~mentions j =
  match Protocol.parse_request j with
  | Ok _ -> Alcotest.failf "accepted %s" (Json.to_string j)
  | Error msg ->
      if not (Test_util.contains msg mentions) then
        Alcotest.failf "error %S does not mention %S" msg mentions

let test_protocol_validation () =
  check_rejected ~mentions:"op" (Json.Obj [ ("op", Json.String "reboot") ]);
  check_rejected ~mentions:"op" (Json.Obj []);
  check_rejected ~mentions:"object" (Json.Array []);
  check_rejected ~mentions:"policy"
    (Json.Obj [ ("op", Json.String "sim"); ("policy", Json.String "magic") ]);
  check_rejected ~mentions:"workload"
    (Json.Obj [ ("op", Json.String "sim"); ("workload", Json.String "nope") ]);
  check_rejected ~mentions:"n"
    (Json.Obj
       [ ("op", Json.String "sim"); ("n", Json.Int (Protocol.max_trace_n + 1)) ]);
  check_rejected ~mentions:"k"
    (Json.Obj [ ("op", Json.String "sim"); ("k", Json.Int 0) ]);
  check_rejected ~mentions:"id"
    (Json.Obj [ ("op", Json.String "health"); ("id", Json.Obj []) ]);
  check_rejected ~mentions:"ks"
    (Json.Obj
       [
         ("op", Json.String "miss-curve");
         ( "ks",
           Json.Array
             (List.init (Protocol.max_curve_points + 1) (fun i -> Json.Int (i + 1)))
         );
       ]);
  (* Defaults make the empty sim valid. *)
  match Protocol.parse_request (Json.Obj [ ("op", Json.String "sim") ]) with
  | Ok { Protocol.op = Protocol.Sim s; _ } ->
      Alcotest.(check string) "default policy" "lru" s.Protocol.policy
  | Ok _ -> Alcotest.fail "parsed to a non-sim op"
  | Error msg -> Alcotest.failf "defaults rejected: %s" msg

let test_protocol_reply_envelope () =
  let id = Json.String "req-1" in
  (match Protocol.reply_of_json (Protocol.ok ~id (Json.Int 5)) with
  | Ok (Some echoed, Protocol.Ok_result (Json.Int 5)) ->
      Alcotest.(check string) "id echo" "\"req-1\"" (Json.to_string echoed)
  | _ -> Alcotest.fail "ok envelope did not round-trip");
  (match Protocol.reply_of_json (Protocol.error ~kind:"overloaded" "full") with
  | Ok (None, Protocol.Err ("overloaded", "full")) -> ()
  | _ -> Alcotest.fail "error envelope did not round-trip");
  match Protocol.reply_of_json (Json.Obj [ ("status", Json.String "weird") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a malformed envelope"

(* ------------------------------------------------- workload_suite.build *)

let test_build_matches_standard () =
  let entries = Gc_trace.Workload_suite.standard ~n:4000 () in
  Alcotest.(check (list string))
    "catalog order"
    (List.map (fun e -> e.Gc_trace.Workload_suite.name) entries)
    Gc_trace.Workload_suite.standard_names;
  List.iter
    (fun e ->
      match Gc_trace.Workload_suite.build ~n:4000 e.Gc_trace.Workload_suite.name with
      | Error msg -> Alcotest.failf "build rejected %s: %s" e.Gc_trace.Workload_suite.name msg
      | Ok t ->
          let digest x =
            Digest.to_hex
              (Digest.bytes (Gc_trace.Trace_io.to_bytes x))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s identical to catalog entry" e.Gc_trace.Workload_suite.name)
            (digest e.Gc_trace.Workload_suite.trace)
            (digest t))
    (entries : Gc_trace.Workload_suite.entry list);
  match Gc_trace.Workload_suite.build "warp" with
  | Error msg ->
      Alcotest.(check bool)
        "lists the valid choices" true
        (Test_util.contains msg "zipf")
  | Ok _ -> Alcotest.fail "built an unknown workload"

(* ------------------------------------------- adversarial clients, live *)

let sock_seq = ref 0

let fresh_sock () =
  incr sock_seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "gcserve-%d-%d.sock" (Unix.getpid ()) !sock_seq)

(* Boot a real in-process server on a throwaway Unix socket, run the test
   body, then drain — the drain is part of every test's assertion set: a
   wedged server makes it hang visibly. *)
let with_server ?(config = Server.default_config) f =
  let path = fresh_sock () in
  let t = Server.create { config with Server.socket_path = Some path } in
  Fun.protect
    ~finally:(fun () ->
      Server.drain t;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (Client.Unix_path path) t)

let small_server =
  { Server.default_config with Server.workers = 2; deadline = 20.; grace = 0.25 }

(* Poll the live stats endpoint until [pred] holds (the server settles
   asynchronously after disconnects). *)
let await_stats ?(timeout = 10.) addr pred ~what =
  let give_up = Unix.gettimeofday () +. timeout in
  let rec go () =
    let stats = result_exn (Client.request_result addr (op_req "stats")) in
    if pred stats then stats
    else if Unix.gettimeofday () > give_up then
      Alcotest.failf "server never settled: %s (last: %s)" what
        (Json.to_string stats)
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let test_serve_happy_path () =
  with_server ~config:small_server (fun addr _t ->
      let health = result_exn (Client.request_result addr (op_req "health")) in
      Alcotest.(check string) "serving" "serving" (string_field "state" health);
      let sim = result_exn (Client.request_result addr (sim_req ())) in
      let metrics =
        match field "metrics" sim with
        | Some m -> m
        | None -> Alcotest.fail "sim result has no metrics"
      in
      Alcotest.(check int) "all accesses simulated" 5000
        (int_field "accesses" metrics);
      let curve = result_exn (Client.request_result addr (curve_req ())) in
      match field "curve" curve with
      | Some (Json.Array [ _; _ ]) -> ()
      | _ -> Alcotest.failf "unexpected curve %s" (Json.to_string curve))

(* Two distinct free loopback ports: both are held while the kernel picks
   them, then released for the servers under test. *)
let free_ports () =
  let grab () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> (fd, port)
    | _ -> Alcotest.fail "loopback socket has no port"
  in
  let fd1, p1 = grab () in
  let fd2, p2 = grab () in
  Unix.close fd1;
  Unix.close fd2;
  (p1, p2)

let test_serve_tcp_listener () =
  let p1, p2 = free_ports () in
  let on sock port =
    {
      small_server with
      Server.socket_path = Some sock;
      tcp = Some ("127.0.0.1", port);
    }
  in
  let refused what config =
    match Server.create config with
    | t ->
        Server.drain t;
        Alcotest.failf "create on %s succeeded" what
    | exception (Failure _ | Unix.Unix_error _) -> ()
  in
  let check_serves port =
    let addr = Client.Tcp ("127.0.0.1", port) in
    let health = result_exn (Client.request_result addr (op_req "health")) in
    Alcotest.(check string) "serving over tcp" "serving"
      (string_field "state" health);
    let sim = result_exn (Client.request_result addr (sim_req ())) in
    match field "metrics" sim with
    | Some m ->
        Alcotest.(check int) "sim over tcp" 5000 (int_field "accesses" m)
    | None -> Alcotest.fail "sim result has no metrics"
  in
  let s1 = fresh_sock () and s2 = fresh_sock () and s3 = fresh_sock () in
  let a = Server.create (on s1 p1) in
  Fun.protect
    ~finally:(fun () -> Server.drain a)
    (fun () ->
      check_serves p1;
      (* A failed create binds nothing and leaves tracing off. *)
      Gc_prof.Tracer.stop ();
      refused "a served socket"
        { (on s1 p2) with Server.trace = Some (s1 ^ ".trace.json") };
      Alcotest.(check bool) "tracing still off" false (Gc_prof.Tracer.enabled ());
      refused "a served port" (on s3 p1);
      Alcotest.(check bool) "socket file of the failed create removed" false
        (Sys.file_exists s3);
      let b = Server.create (on s2 p2) in
      Fun.protect ~finally:(fun () -> Server.drain b) (fun () -> check_serves p2))

let test_serve_pipelined_ids () =
  (* Two requests down one connection; replies match up by echoed id. *)
  with_server ~config:small_server (fun addr _t ->
      let c = connect_exn addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          send_exn c (sim_req ~id:(Json.Int 1) ());
          send_exn c (sim_req ~id:(Json.Int 2) ~policy:"fifo" ());
          let take () = reply_exn (Client.recv_result ~timeout:30. c) in
          let ids =
            List.sort compare
              (List.map
                 (fun (id, reply) ->
                   (match reply with
                   | Protocol.Ok_result _ -> ()
                   | Protocol.Err (k, m) -> Alcotest.failf "error %s: %s" k m);
                   match id with
                   | Some (Json.Int i) -> i
                   | _ -> Alcotest.fail "missing id echo")
                 [ take (); take () ])
          in
          Alcotest.(check (list int)) "both answered, ids echoed" [ 1; 2 ] ids))

let test_serve_malformed_json_keeps_connection () =
  with_server ~config:small_server (fun addr _t ->
      let c = connect_exn addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* A complete frame whose payload is not JSON: framed usage-layer
             error, connection survives. *)
          let junk = "{\"op\": \x01}" in
          let header =
            let n = String.length junk in
            let b = Bytes.create 4 in
            Bytes.set b 0 '\x00';
            Bytes.set b 1 '\x00';
            Bytes.set b 2 '\x00';
            Bytes.set b 3 (Char.chr n);
            Bytes.to_string b
          in
          let (_ : int) =
            Unix.write_substring (Client.fd c) (header ^ junk) 0
              (String.length header + String.length junk)
          in
          (match reply_exn (Client.recv_result ~timeout:10. c) with
          | _, Protocol.Err (kind, msg) ->
              Alcotest.(check string) "protocol kind" Protocol.kind_protocol kind;
              Alcotest.(check bool) "positioned diagnostic" true
                (Test_util.contains msg "offset")
          | _ -> Alcotest.fail "junk payload got an ok reply");
          (* Same connection still serves. *)
          send_exn c (op_req "health");
          match reply_exn (Client.recv_result ~timeout:10. c) with
          | _, Protocol.Ok_result h ->
              Alcotest.(check string) "still serving" "serving"
                (string_field "state" h)
          | _ -> Alcotest.fail "connection did not survive junk payload"))

let test_serve_oversized_frame () =
  with_server ~config:small_server (fun addr _t ->
      let c = connect_exn addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* Claim 1 MiB + 1: the reply must name the cap and the
             connection must close (stream position is unrecoverable). *)
          let (_ : int) =
            Unix.write_substring (Client.fd c) "\x00\x10\x00\x01" 0 4
          in
          (match reply_exn (Client.recv_result ~timeout:10. c) with
          | _, Protocol.Err (kind, msg) ->
              Alcotest.(check string) "protocol kind" Protocol.kind_protocol kind;
              Alcotest.(check bool) "names the cap" true
                (Test_util.contains msg "frame cap")
          | _ -> Alcotest.fail "oversized frame got an ok reply");
          (match Client.recv_result ~timeout:5. c with
          | Error _ -> ()
          | Ok j ->
              Alcotest.failf "connection survived an oversized frame: %s"
                (Json.to_string j)));
      (* And the server itself is still perfectly serviceable. *)
      let sim = result_exn (Client.request_result addr (sim_req ())) in
      Alcotest.(check bool) "server still serves" true (field "metrics" sim <> None))

let test_serve_slow_loris () =
  let config = { small_server with Server.frame_timeout = 0.3 } in
  with_server ~config (fun addr _t ->
      let c = connect_exn addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* Start a frame, then dribble: one header byte, then silence.
             The server must cut us off with a framed protocol error
             instead of pinning the reader. *)
          let started = Unix.gettimeofday () in
          let (_ : int) = Unix.write_substring (Client.fd c) "\x00" 0 1 in
          (match reply_exn (Client.recv_result ~timeout:10. c) with
          | _, Protocol.Err (kind, _) ->
              Alcotest.(check string) "protocol kind" Protocol.kind_protocol kind
          | _ -> Alcotest.fail "slow-loris got an ok reply");
          let elapsed = Unix.gettimeofday () -. started in
          Alcotest.(check bool)
            (Printf.sprintf "cut off promptly (%.2fs)" elapsed)
            true (elapsed < 5.));
      let health = result_exn (Client.request_result addr (op_req "health")) in
      Alcotest.(check string) "still serving" "serving"
        (string_field "state" health))

let test_serve_disconnect_cancels () =
  with_server ~config:small_server (fun addr _t ->
      (* Park a request on a policy that spins until cancelled, then
         vanish.  The disconnect must cancel the in-flight work and
         reclaim the worker — in-flight returns to 0 long before the 20s
         deadline could. *)
      let c = connect_exn addr in
      send_exn c (sim_req ~policy:"broken:hang@0" ());
      let (_ : Json.t) =
        await_stats addr ~what:"hang admitted"
          (fun stats -> int_field "inflight" stats >= 1)
      in
      Client.close c;
      let stats =
        await_stats addr ~what:"disconnect cancels the in-flight hang"
          (fun stats ->
            int_field "inflight" stats = 0
            && metric_value stats "mid_request_disconnects" >= 1)
      in
      Alcotest.(check int) "queue drained too" 0 (int_field "queue_depth" stats);
      (* The reclaimed worker still serves. *)
      let sim = result_exn (Client.request_result addr (sim_req ())) in
      Alcotest.(check bool) "worker reclaimed" true (field "metrics" sim <> None))

let test_serve_one_shot_clients_are_not_disconnects () =
  (* A client that reads its reply and hangs up at once has finished its
     request: the job leaves the connection's in-flight list before the
     reply is written, so the hang-up cannot be counted mid-request. *)
  with_server ~config:{ small_server with Server.workers = 1 } (fun addr _t ->
      for _ = 1 to 120 do
        let (_ : Json.t) =
          result_exn
            (Client.request_result addr
               (sim_req ~k:64 ~load:(load ~n:256 ()) ()))
        in
        ()
      done;
      (* Every one-shot connection released: only the stats one is left. *)
      let stats =
        await_stats addr ~what:"one-shot connections released" (fun stats ->
            int_field "connections" stats = 1)
      in
      Alcotest.(check int) "no mid-request disconnects" 0
        (metric_value stats "mid_request_disconnects"))

let test_serve_deadline_timeout () =
  let config = { small_server with Server.deadline = 0.3; grace = 0.2 } in
  with_server ~config (fun addr _t ->
      match
        reply_exn
          (Client.request_result ~timeout:20. addr
             (sim_req ~policy:"broken:hang@0" ()))
      with
      | _, Protocol.Err (kind, msg) ->
          Alcotest.(check string) "timeout kind" Protocol.kind_timeout kind;
          Alcotest.(check bool) "names the deadline" true
            (Test_util.contains msg "deadline")
      | _ -> Alcotest.fail "a hung request produced an ok reply")

let test_serve_transient_retry () =
  (* broken:flaky raises Transient on pool attempt 1 and succeeds on the
     retry, so with one retry the client just sees an ok reply. *)
  with_server ~config:{ small_server with Server.retries = 1 } (fun addr _t ->
      let sim =
        result_exn
          (Client.request_result ~timeout:30. addr
             (sim_req ~policy:"broken:flaky@0" ()))
      in
      Alcotest.(check bool) "retried to success" true (field "metrics" sim <> None))

let test_serve_overload_sheds () =
  let config =
    { small_server with Server.workers = 1; queue_depth = 1; deadline = 1.5; grace = 0.25 }
  in
  with_server ~config (fun addr _t ->
      (* Pin the single worker, fill the depth-1 queue, then watch the
         next request get an explicit overloaded reply immediately. *)
      let pin = connect_exn addr in
      send_exn pin (sim_req ~id:(Json.Int 1) ~policy:"broken:hang@0" ());
      let (_ : Json.t) =
        await_stats addr ~what:"hang admitted"
          (fun stats -> int_field "inflight" stats >= 1)
      in
      let filler = connect_exn addr in
      send_exn filler (sim_req ~id:(Json.Int 2) ());
      let (_ : Json.t) =
        await_stats addr ~what:"queue full"
          (fun stats -> int_field "queue_depth" stats >= 1)
      in
      let started = Unix.gettimeofday () in
      (match
         reply_exn
           (Client.request_result ~timeout:10. addr
              (sim_req ~id:(Json.Int 3) ()))
       with
      | _, Protocol.Err (kind, msg) ->
          Alcotest.(check string) "shed with overloaded" Protocol.kind_overloaded
            kind;
          Alcotest.(check bool) "explains the queue" true
            (Test_util.contains msg "queue")
      | _ -> Alcotest.fail "request admitted past a full queue");
      Alcotest.(check bool) "shed in bounded time" true
        (Unix.gettimeofday () -. started < 2.);
      let stats =
        await_stats addr ~what:"shed counted"
          (fun stats -> metric_value stats "shed" >= 1)
      in
      Alcotest.(check bool) "latency histogram live" true
        (List.length (match field "metrics" stats with
          | Some (Json.Array rows) -> rows
          | _ -> []) > 0);
      Client.close pin;
      Client.close filler)

let test_serve_budget_expires () =
  (* Deadline propagation, adversarially: pin the single worker, enqueue
     requests whose client budgets lapse while they wait, and require
     that NONE of them executes — each must come back as a structured
     expired reply carrying a retry hint, and the expired sheds must be
     counted.  CoDel is off so the verdicts are purely budget-driven. *)
  let config =
    {
      small_server with
      Server.workers = 1;
      queue_depth = 8;
      deadline = 1.5;
      grace = 0.25;
      codel_target = 0.;
    }
  in
  with_server ~config (fun addr _t ->
      let pin = connect_exn addr in
      send_exn pin (sim_req ~id:(Json.Int 1) ~policy:"broken:hang@0" ());
      let (_ : Json.t) =
        await_stats addr ~what:"hang admitted"
          (fun stats -> int_field "inflight" stats >= 1)
      in
      let c = connect_exn addr in
      Fun.protect
        ~finally:(fun () ->
          Client.close c;
          Client.close pin)
        (fun () ->
          let n = 3 in
          for i = 1 to n do
            send_exn c (sim_req ~id:(Json.Int (100 + i)) ~budget_ms:200 ())
          done;
          for _ = 1 to n do
            match Client.recv_result ~timeout:30. c with
            | Error e ->
                Alcotest.failf "recv: %s" (Client.string_of_client_error e)
            | Ok raw ->
                (match reply_exn (Ok raw) with
                | _, Protocol.Err (kind, msg) ->
                    Alcotest.(check string) "expired, never executed"
                      Protocol.kind_expired kind;
                    Alcotest.(check bool) "explains the lapsed budget" true
                      (Test_util.contains msg "budget")
                | _, Protocol.Ok_result _ ->
                    Alcotest.fail
                      "a request executed after its propagated budget lapsed");
                Alcotest.(check bool) "carries a retry hint" true
                  (Protocol.retry_after_ms raw <> None)
          done;
          let stats =
            await_stats addr ~what:"expired sheds counted"
              (fun stats -> metric_value stats "shed_expired" >= n)
          in
          Alcotest.(check bool) "total shed includes expired" true
            (metric_value stats "shed" >= n)))

let test_serve_graceful_drain () =
  with_server ~config:small_server (fun addr t ->
      (* A meaty request rides through the drain; a request sent after the
         drain begins is refused with a draining reply; both verdicts come
         back on the same connection, matched by id. *)
      let c = connect_exn addr in
      send_exn c
        (sim_req ~id:(Json.Int 1) ~load:(load ~workload:"zipf" ~n:2_000_000 ()) ());
      let (_ : Json.t) =
        await_stats addr ~what:"big sim admitted"
          (fun stats -> int_field "inflight" stats >= 1)
      in
      let drainer = Thread.create (fun () -> Server.drain t) () in
      let give_up = Unix.gettimeofday () +. 5. in
      while (not (Server.draining t)) && Unix.gettimeofday () < give_up do
        Thread.delay 0.01
      done;
      Alcotest.(check bool) "drain flag up" true (Server.draining t);
      send_exn c (sim_req ~id:(Json.Int 2) ());
      let take () = reply_exn (Client.recv_result ~timeout:60. c) in
      let verdicts =
        List.map
          (fun (id, reply) ->
            match id with
            | Some (Json.Int i) -> (i, kind_of (id, reply))
            | _ -> Alcotest.fail "missing id echo")
          [ take (); take () ]
      in
      Alcotest.(check string) "in-flight answered" "ok" (List.assoc 1 verdicts);
      Alcotest.(check string) "new work refused" Protocol.kind_draining
        (List.assoc 2 verdicts);
      Thread.join drainer;
      Client.close c;
      (* Fully stopped: the socket no longer accepts. *)
      match Client.connect_result addr with
      | Ok c2 ->
          Client.close c2;
          Alcotest.fail "drained server still accepts connections"
      | Error _ -> ())

(* A labeled histogram row in a stats reply's metric dump. *)
let histogram_row stats ~name ~op =
  match field "metrics" stats with
  | Some (Json.Array rows) ->
      List.find_opt
        (fun row ->
          string_field "name" row = name
          &&
          match field "labels" row with
          | Some (Json.Obj kvs) ->
              List.assoc_opt "op" kvs = Some (Json.String op)
          | _ -> false)
        rows
  | _ -> None

let test_serve_trace_reconciles_latency () =
  let trace_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcserve-trace-%d.json" (Unix.getpid ()))
  in
  let latency_us = ref 0 in
  with_server
    ~config:{ small_server with Server.trace = Some trace_path }
    (fun addr _t ->
      let (_ : Json.t) =
        result_exn (Client.request_result addr (sim_req ~id:(Json.Int 1) ()))
      in
      (* The latency observation lands just after the reply is written;
         poll stats until the histogram has it. *)
      let stats =
        await_stats addr ~what:"latency observed" (fun stats ->
            match histogram_row stats ~name:"latency_us" ~op:"sim" with
            | Some row -> int_field "count" row = 1
            | None -> false)
      in
      match histogram_row stats ~name:"latency_us" ~op:"sim" with
      | Some row -> latency_us := int_field "sum" row
      | None -> Alcotest.fail "no latency_us{op=sim} histogram")
  ;
  (* The drain — with_server's finally — wrote the Chrome trace. *)
  let trace = Test_util.parse_json_file trace_path in
  Sys.remove trace_path;
  let events =
    match field "traceEvents" trace with
    | Some (Json.Array evs) -> evs
    | _ -> Alcotest.fail "trace file has no traceEvents array"
  in
  let of_request name =
    List.filter
      (fun ev ->
        string_field "name" ev = name
        &&
        match field "args" ev with
        | Some args -> field "id" args = Some (Json.String "1")
        | None -> false)
      events
  in
  let dur ev =
    match field "dur" ev with
    | Some (Json.Float d) -> d
    | Some (Json.Int d) -> float_of_int d
    | _ -> Alcotest.fail "trace event without a dur"
  in
  Alcotest.(check bool) "decode span recorded" true (of_request "decode" <> []);
  (* decode precedes admission; the latency window opens at admission, so
     it reconciles against the four in-window phases. *)
  let sum_us =
    List.fold_left
      (fun acc name ->
        match of_request name with
        | [ ev ] -> acc +. dur ev
        | [] -> Alcotest.failf "no %s span for the request" name
        | _ -> Alcotest.failf "duplicate %s spans for the request" name)
      0.
      [ "queue-wait"; "execute"; "encode"; "reply" ]
  in
  let latency = float_of_int !latency_us in
  if sum_us > latency +. 1_000. then
    Alcotest.failf "spans sum to %.0fus, more than the measured latency %.0fus"
      sum_us latency;
  if latency -. sum_us > 50_000. then
    Alcotest.failf
      "spans sum to %.0fus, leaving %.0fus of the %.0fus latency unexplained"
      sum_us (latency -. sum_us) latency

(* ------------------------------------------------------------- e2e soak *)

let gcserved = "../bin/gcserved.exe"

let spawn_gcserved args =
  let err = Filename.temp_file "gcserved" ".err" in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process gcserved
      (Array.of_list (gcserved :: args))
      Unix.stdin Unix.stdout err_fd
  in
  Unix.close err_fd;
  (pid, err)

let await_ready addr =
  let give_up = Unix.gettimeofday () +. 15. in
  let rec go () =
    match Client.request_result ~timeout:2. addr (op_req "health") with
    | Ok _ -> ()
    | Error _ when Unix.gettimeofday () < give_up ->
        Thread.delay 0.05;
        go ()
    | Error e ->
        Alcotest.failf "gcserved never became ready: %s"
          (Client.string_of_client_error e)
  in
  go ()

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_soak_drain () =
  match Sys.getenv_opt "GC_SERVE_SOAK" with
  | None ->
      print_endline
        "serve soak skipped (GC_SERVE_SOAK unset; run it with `dune build \
         @serve-soak`)"
  | Some _ ->
      let sock = fresh_sock () in
      let manifest = Filename.temp_file "gcserved" ".json" in
      let pid, err =
        spawn_gcserved
          [
            "serve"; "--socket"; sock; "--workers"; "2"; "--queue-depth"; "4";
            "--deadline"; "5"; "--manifest"; manifest;
          ]
      in
      let addr = Client.Unix_path sock in
      await_ready addr;
      let term_sent = Atomic.make false in
      let well_formed = Atomic.make 0
      and malformed = Atomic.make 0
      and refused_live = Atomic.make 0 in
      let hammer i =
        (* Each hammer thread owns a resilient client: reconnects and
           shed-retries are its job, so a refusal while the server is
           live means resilience failed, not that a dial lost a race. *)
        let rc =
          Gc_resil.Resilient_client.create ~timeout:30. ~seed:i addr
        in
        for j = 0 to 23 do
          let req =
            match (i + j) mod 4 with
            | 0 -> sim_req ~id:(Json.Int j) ~load:(load ~n:20_000 ()) ()
            | 1 -> sim_req ~id:(Json.Int j) ~policy:"broken:flaky@0" ()
            | 2 -> curve_req ~id:(Json.Int j) ()
            | _ -> op_req "stats"
          in
          match Gc_resil.Resilient_client.request rc req with
          | Ok j -> (
              match Protocol.reply_of_json j with
              | Ok _ -> Atomic.incr well_formed
              | Error _ -> Atomic.incr malformed)
          | Error _ ->
              (* Refused/reset/draining: fine once the drain began, a
                 failure before it. *)
              if not (Atomic.get term_sent) then Atomic.incr refused_live
        done;
        Gc_resil.Resilient_client.close rc
      in
      let adversary () =
        (* Garbage, partial frames, bogus lengths, instant hangups — all
           while the real clients hammer. *)
        for j = 0 to 40 do
          match Client.connect_result ~timeout:2. addr with
          | Error _ | (exception Unix.Unix_error _) -> ()
          | Ok c ->
              (try
                 let payload =
                   match j mod 4 with
                   | 0 -> "\xde\xad\xbe\xef\x00garbage"
                   | 1 -> "\x00" (* partial header, then hangup *)
                   | 2 -> "\xff\xff\xff\xff" (* length bomb *)
                   | _ -> String.sub (Frame.encode (sim_req ())) 0 7
                 in
                 let (_ : int) =
                   Unix.write_substring (Client.fd c) payload 0
                     (String.length payload)
                 in
                 ()
               with Unix.Unix_error _ -> ());
              Thread.delay 0.002;
              Client.close c
        done
      in
      let clients = List.init 6 (fun i -> Thread.create hammer i) in
      let adv = Thread.create adversary () in
      Thread.delay 1.5;
      Atomic.set term_sent true;
      Unix.kill pid Sys.sigterm;
      List.iter Thread.join clients;
      Thread.join adv;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n ->
          Alcotest.failf "gcserved exited %d; stderr:\n%s" n (read_file err)
      | Unix.WSIGNALED s -> Alcotest.failf "gcserved killed by signal %d" s
      | Unix.WSTOPPED s -> Alcotest.failf "gcserved stopped by signal %d" s);
      Alcotest.(check int) "no malformed replies" 0 (Atomic.get malformed);
      Alcotest.(check int) "no refusals while live" 0 (Atomic.get refused_live);
      Alcotest.(check bool) "real work was answered" true
        (Atomic.get well_formed > 0);
      let m = read_file manifest in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "manifest mentions %s" needle)
            true (Test_util.contains m needle))
        [ "drained"; "shed"; "latency_us"; "queue_depth"; "gcserved" ];
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock);
      Sys.remove manifest;
      Sys.remove err

let test_soak_second_signal_hard_exit () =
  match Sys.getenv_opt "GC_SERVE_SOAK" with
  | None -> print_endline "serve soak skipped (GC_SERVE_SOAK unset)"
  | Some _ ->
      let sock = fresh_sock () in
      let pid, err =
        spawn_gcserved
          [ "serve"; "--socket"; sock; "--workers"; "1"; "--deadline"; "120" ]
      in
      let addr = Client.Unix_path sock in
      await_ready addr;
      (* Wedge the drain behind an effectively unbounded in-flight hang,
         then demand the supervisor's second-signal hard exit. *)
      let c = connect_exn addr in
      send_exn c (sim_req ~policy:"broken:hang@0" ());
      let (_ : Json.t) =
        await_stats addr ~what:"hang admitted"
          (fun stats -> int_field "inflight" stats >= 1)
      in
      Unix.kill pid Sys.sigterm;
      Thread.delay 0.5;
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 130 -> ()
      | Unix.WEXITED n ->
          Alcotest.failf "expected the 130 hard exit, got %d; stderr:\n%s" n
            (read_file err)
      | _ -> Alcotest.fail "gcserved did not exit");
      Client.close c;
      (try Sys.remove sock with Sys_error _ -> ());
      Sys.remove err

(* ---------------------------------------------------------------- suite *)

let () =
  Alcotest.run "gc_serve"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "stream decode" `Quick test_frame_stream;
          Alcotest.test_case "positioned errors" `Quick test_frame_errors;
          Alcotest.test_case "length bomb" `Quick test_frame_length_bomb;
          Alcotest.test_case "zero and negative budgets" `Quick
            test_frame_zero_budget;
          Alcotest.test_case "deadline expires mid-frame" `Quick
            test_frame_deadline_mid_frame;
          Alcotest.test_case "EINTR storm honours the deadline" `Quick
            test_frame_eintr_storm;
        ] );
      ( "fuzz",
        [ fuzz_random_bytes; fuzz_truncations; fuzz_length_bombs ] );
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "validation" `Quick test_protocol_validation;
          Alcotest.test_case "reply envelope" `Quick test_protocol_reply_envelope;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "build matches the catalog" `Quick
            test_build_matches_standard;
        ] );
      ( "server",
        [
          Alcotest.test_case "happy path" `Quick test_serve_happy_path;
          Alcotest.test_case "tcp listener and failed creates" `Quick
            test_serve_tcp_listener;
          Alcotest.test_case "pipelined ids" `Quick test_serve_pipelined_ids;
          Alcotest.test_case "malformed json keeps the connection" `Quick
            test_serve_malformed_json_keeps_connection;
          Alcotest.test_case "oversized frame" `Quick test_serve_oversized_frame;
          Alcotest.test_case "slow loris" `Quick test_serve_slow_loris;
          Alcotest.test_case "disconnect cancels in-flight work" `Quick
            test_serve_disconnect_cancels;
          Alcotest.test_case "one-shot clients are not disconnects" `Quick
            test_serve_one_shot_clients_are_not_disconnects;
          Alcotest.test_case "deadline timeout" `Quick test_serve_deadline_timeout;
          Alcotest.test_case "transient retry" `Quick test_serve_transient_retry;
          Alcotest.test_case "overload sheds explicitly" `Quick
            test_serve_overload_sheds;
          Alcotest.test_case "lapsed budgets expire unexecuted" `Quick
            test_serve_budget_expires;
          Alcotest.test_case "graceful drain" `Quick test_serve_graceful_drain;
          Alcotest.test_case "trace reconciles with latency" `Quick
            test_serve_trace_reconciles_latency;
        ] );
      ( "soak",
        [
          Alcotest.test_case "hammer + SIGTERM drain" `Quick test_soak_drain;
          Alcotest.test_case "second signal hard-exits" `Quick
            test_soak_second_signal_hard_exit;
        ] );
    ]
