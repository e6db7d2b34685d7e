(* The serving workloads: closed-loop traffic from this process to a
   `gcserved serve --workers 1` child on a Unix socket.  Every reply is
   checked against the request's trace rebuilt locally, and the server's
   own accounting ([stats], shutdown manifest) is reconciled with the
   client's at the end of the run. *)

open Util
module T = Gc_trace
module J = Gc_obs.Json
module Client = Gc_serve.Client
module P = Gc_serve.Protocol
module RC = Gc_resil.Resilient_client

(* ------------------------------------------------------------ the mixes *)

let block_size = 16
let universe = 16_384

type request = { policy : string; workload : string; n : int; seed : int; ks : int list }

type mix = {
  name : string;
  conns : int;  (* closed-loop connections, one thread each *)
  cycle : request array;  (* connection j issues cycle.(j), cycle.(j+1), ... *)
  curve : bool;  (* miss-curve requests rather than sim *)
}

(* Request seeds come from the workload seed, so the same seed gives the
   same traffic. *)
let seeds ~seed count =
  let rng = T.Rng.create seed in
  Array.init count (fun _ -> T.Rng.int rng 1_000_000)

(* 256 accesses at k = 64: serving layers dominate.  The policy
   alternates, the workload cycles through the suite, and the request
   seed steps through four values. *)
let small ~seed =
  let s = seeds ~seed 4 in
  let names = Array.of_list T.Workload_suite.standard_names in
  let w = Array.length names in
  {
    name = "serve-small";
    conns = 1;
    curve = false;
    cycle =
      Array.init (2 * w * 4) (fun i ->
          {
            policy = (if i mod 2 = 0 then "lru" else "block-lru");
            workload = names.(i / 2 mod w);
            n = 256;
            seed = s.(i / (2 * w));
            ks = [ 64 ];
          });
  }

(* Unchecked, hit-heavy simulation dominates.  The two request kinds
   cost about the same server time (~35 ms), so a single worker stays
   saturated with one request queued and the queue wait stays below the
   100 ms CoDel target. *)
let curve_block_lru_n = 5_000

let curve ~seed =
  let s = seeds ~seed 2 in
  {
    name = "serve-curve";
    conns = 2;
    curve = true;
    cycle =
      Array.init 4 (fun i ->
          let lru = i mod 2 = 0 in
          {
            policy = (if lru then "lru" else "block-lru");
            workload = "zipf";
            n = (if lru then 20_000 else curve_block_lru_n);
            seed = s.(i / 2);
            ks = [ 256; 1024; 4096 ];
          });
  }

let mix_of_name ~seed = function
  | "serve-small" -> small ~seed
  | "serve-curve" -> curve ~seed
  | other -> invalid_arg ("no serving mix " ^ other)

let load_of r = { P.workload = r.workload; n = r.n; universe; block_size }

let op_of mix r =
  if mix.curve then
    P.Miss_curve { curve_policy = r.policy; ks = r.ks; curve_seed = r.seed; curve_load = load_of r }
  else P.Sim { policy = r.policy; k = List.hd r.ks; seed = r.seed; load = load_of r; check = false }

let request_json mix ~id r =
  P.request_to_json { P.id = Some (J.String id); op = op_of mix r; budget_ms = None }

let control op = P.request_to_json { P.id = None; op; budget_ms = None }

(* --------------------------------------------------------------- oracles *)

let shape_key r = Printf.sprintf "%s/n=%d/seed=%d" r.workload r.n r.seed

let build r =
  match T.Workload_suite.build ~seed:r.seed ~n:r.n ~universe ~block_size r.workload with
  | Ok t -> t
  | Error e -> failwith e

(* Expected misses per k, from Mattson stack distances over the trace
   rebuilt here: item-level for lru, block-level at k/B for block-lru. *)
let oracle r =
  let t = build r in
  match r.policy with
  | "lru" ->
      let h = T.Stats.stack_distances t in
      List.map (T.Stats.lru_misses_at h) r.ks
  | "block-lru" ->
      let h = T.Stats.block_stack_distances t in
      List.map (fun k -> T.Stats.lru_misses_at h (k / block_size)) r.ks
  | p -> invalid_arg ("no oracle for " ^ p)

let distinct_shapes mix =
  Array.fold_left
    (fun acc r -> if List.mem_assoc (shape_key r) acc then acc else (shape_key r, r) :: acc)
    [] mix.cycle
  |> List.rev

(* Digests of every distinct request trace, pinned for the default seed. *)
let check_inputs c ~seed mix =
  List.iter
    (fun (key, r) ->
      let d = T.Trace.digest (build r) in
      Printf.printf "input %s %s: %s\n" mix.name key d;
      if seed = Pinned.default_seed then
        run_check c
          (List.assoc_opt key Pinned.serve_digests = Some d)
          "%s request trace %s digest %s drifted from its pin" mix.name key d)
    (distinct_shapes mix)

(* -------------------------------------------------------------- servers *)

type server = { pid : int; sock : string; manifest : string; trace_file : string option }

(* Servers not yet stopped, for [kill_all].  Load threads never spawn or
   stop servers. *)
let live : server list ref = ref []

let forget s = live := List.filter (fun x -> x.pid <> s.pid) !live

let spawn ~exe ~tag ~traced =
  ensure_out_dir ();
  let sock = out_path (tag ^ ".sock") in
  let manifest = out_path (tag ^ "-shutdown.json") in
  let trace_file = if traced then Some (out_path (tag ^ "-server-trace.json")) else None in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (sock :: manifest :: Option.to_list trace_file);
  let args =
    [ exe; "serve"; "--socket"; sock; "--workers"; "1"; "--manifest"; manifest ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let log =
    Unix.openfile (out_path (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid = Unix.create_process exe (Array.of_list args) null log log in
  Unix.close null;
  Unix.close log;
  let s = { pid; sock; manifest; trace_file } in
  live := s :: !live;
  s

let addr s = Client.Unix_path s.sock

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 255)

let is_ok reply =
  match P.reply_of_json reply with Ok (_, P.Ok_result _) -> true | _ -> false

(* From spawn to the first ok health reply. *)
let wait_ready s ~t0 =
  let rec loop () =
    match Client.request_result ~timeout:5. (addr s) (control P.Health) with
    | Ok reply when is_ok reply -> now_ns () - t0
    | _ ->
        (match exited s with
        | Some _ ->
            forget s;
            failwith "gcserved exited before answering health"
        | None -> ());
        if now_ns () - t0 > Gc_prof.Clock.ns_of_s 60. then
          failwith "gcserved did not answer health within 60 s";
        Gc_exec.Pool.nap 0.001;
        loop ()
  in
  loop ()

(* SIGTERM, then wait for the drain; SIGKILL if it hangs. *)
let stop ?(signal = Sys.sigterm) s =
  (try Unix.kill s.pid signal with Unix.Unix_error _ -> ());
  let deadline = now_ns () + Gc_prof.Clock.ns_of_s 30. in
  let rec wait () =
    match exited s with
    | Some status -> status
    | None when now_ns () > deadline ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (Unix.waitpid [] s.pid)
    | None ->
        Gc_exec.Pool.nap 0.005;
        wait ()
  in
  let status = wait () in
  forget s;
  (try Sys.remove s.sock with Sys_error _ -> ());
  status

(* Every exit path, a failed check and a signal included, ends here. *)
let kill_all () =
  List.iter (fun s -> ignore (stop ~signal:Sys.sigkill s)) !live

(* ----------------------------------------------------------------- load *)

type sample = {
  lat_ns : int;
  done_ns : int;
  req : request;
  id : string;
  reply : (J.t, RC.failure) Stdlib.result;
}

type conn = { client : RC.t; index : int; mutable step : int }

(* Load threads share domain 0; their span tracks are offset past any
   domain id. *)
let thread_tid () = 100_000 + Thread.id (Thread.self ())

let conn_loop mix ~tag ~until ~max_requests ~issued ~on_reply conn =
  let samples = ref [] in
  while now_ns () < until && Atomic.fetch_and_add issued 1 < max_requests do
    let r = mix.cycle.((conn.index + conn.step) mod Array.length mix.cycle) in
    let id = Printf.sprintf "%s%d-%d" tag conn.index conn.step in
    let json = request_json mix ~id r in
    let reply, lat_ns =
      timed (fun () ->
          Gc_prof.Span.with_ ~args:[ ("id", id) ] ~tid:(thread_tid ())
            "resilient_client.request" (fun () -> RC.request conn.client json))
    in
    samples := { lat_ns; done_ns = now_ns (); req = r; id; reply } :: !samples;
    on_reply ();
    conn.step <- conn.step + 1
  done;
  !samples

(* One closed-loop window over all connections: one thread per
   connection, the first on the calling thread. *)
let window mix conns ~tag ~seconds ?(max_requests = max_int) ?(on_reply = ignore) () =
  let t0 = now_ns () in
  let until = t0 + Gc_prof.Clock.ns_of_s seconds in
  let issued = Atomic.make 0 in
  let run = conn_loop mix ~tag ~until ~max_requests ~issued ~on_reply in
  let others =
    List.map
      (fun conn ->
        let out = ref [] in
        (Thread.create (fun () -> out := run conn) (), out))
      (List.tl conns)
  in
  let first = run (List.hd conns) in
  let rest = List.concat_map (fun (th, out) -> Thread.join th; !out) others in
  (first @ rest, now_ns () - t0)

(* --------------------------------------------------------------- checks *)

let check_reply c mix oracles s =
  op c (fun () ->
      let what = Printf.sprintf "%s request %s (%s %s)" mix.name s.id s.req.policy (shape_key s.req) in
      match s.reply with
      | Error f -> check c false "%s: %s" what (RC.string_of_failure f)
      | Ok json -> (
          match P.reply_of_json json with
          | Error e -> check c false "%s: malformed reply: %s" what e
          | Ok (_, P.Err (kind, message)) -> check c false "%s: %s: %s" what kind message
          | Ok (_, P.Ok_result result) ->
              let expected = List.assoc (s.req.policy ^ "/" ^ shape_key s.req) oracles in
              if mix.curve then begin
                let points =
                  match member [ "curve" ] result with
                  | Some (J.Array ps) -> ps
                  | _ -> []
                in
                let got =
                  List.map (fun p -> (member_int [ "k" ] p, member_int [ "misses" ] p)) points
                in
                check c
                  (got = List.map2 (fun k m -> (Some k, Some m)) s.req.ks expected)
                  "%s: curve misses disagree with the stack-distance oracle %s" what
                  (String.concat "," (List.map string_of_int expected))
              end
              else begin
                let f name = Option.value (member_int [ "metrics"; name ] result) ~default:(-1) in
                let hits = f "hits" and misses = f "misses" and accesses = f "accesses" in
                check c (accesses = s.req.n && hits + misses = accesses)
                  "%s: hits %d + misses %d, accesses %d, expected %d" what hits misses accesses s.req.n;
                check c (f "spatial_hits" + f "temporal_hits" = hits) "%s: spatial + temporal <> hits" what;
                check c (f "items_loaded" >= misses) "%s: items_loaded < misses" what;
                check c (Some misses = List.nth_opt expected 0)
                  "%s: %d misses, stack-distance oracle says %d" what misses (List.hd expected)
              end))

(* ---------------------------------------------------------------- stats *)

let find_metric metrics name labels =
  match metrics with
  | Some (J.Array rows) ->
      List.find_opt
        (fun row ->
          member_string [ "name" ] row = Some name
          && List.for_all (fun (k, v) -> member_string [ "labels"; k ] row = Some v) labels)
        rows
  | _ -> None

let counter metrics name labels =
  Option.bind (find_metric metrics name labels) (member_int [ "value" ])
  |> Option.value ~default:(-1)

let stats s =
  match Client.request_result ~timeout:30. (addr s) (control P.Stats) with
  | Ok json -> (
      match P.reply_of_json json with
      | Ok (_, P.Ok_result r) -> member [ "metrics" ] r
      | _ -> failwith "stats: not an ok reply")
  | Error e -> failwith ("stats: " ^ Client.string_of_client_error e)

(* What this process sent, to reconcile with the server's counters. *)
type tally = { mutable work : int; mutable retries : int; mutable health : int; mutable ok : int }

let op_label mix = if mix.curve then "miss-curve" else "sim"

let reconcile c mix tally ~stats:st ~manifest =
  let label = op_label mix in
  let requests m = counter m "requests" [ ("op", label) ] in
  let ok m = counter m "replies" [ ("status", "ok") ] in
  Printf.printf
    "server accounting %s: requests{op=%s} %d (client attempts %d), requests{op=health} %d \
     (client %d), replies{ok} %d (client %d), protocol_faults %d, mid_request_disconnects %d \
     (recorded, not gated), shed %d\n"
    mix.name label (requests st) (tally.work + tally.retries)
    (counter st "requests" [ ("op", "health") ])
    tally.health (ok st) tally.ok
    (counter st "protocol_faults" [])
    (counter st "mid_request_disconnects" [])
    (counter st "shed" []);
  run_check c (requests st = tally.work + tally.retries)
    "%s: server counted %d %s requests, client attempted %d" mix.name (requests st) label
    (tally.work + tally.retries);
  run_check c
    (counter st "requests" [ ("op", "health") ] = tally.health)
    "%s: server counted %d health requests, client sent %d" mix.name
    (counter st "requests" [ ("op", "health") ])
    tally.health;
  run_check c (ok st = tally.ok) "%s: server counted %d ok replies, client received %d"
    mix.name (ok st) tally.ok;
  run_check c (counter st "protocol_faults" [] = 0) "%s: protocol_faults %d" mix.name
    (counter st "protocol_faults" []);
  (* The drain answers nothing new: the manifest's registry is the stats
     snapshot plus the stats reply itself. *)
  let m = member [ "extra"; "server" ] manifest in
  run_check c
    (member_string [ "extra"; "status" ] manifest = Some "drained"
    && requests m = requests st
    && ok m = ok st + 1)
    "%s: shutdown manifest disagrees with the final stats (status %s, requests %d, ok %d)"
    mix.name
    (Option.value (member_string [ "extra"; "status" ] manifest) ~default:"missing")
    (requests m) (ok m)

(* ------------------------------------------------------------- sessions *)

type session = {
  mix : mix;
  server : server;
  conns : conn list;
  tally : tally;
  oracles : (string * int list) list;
  setup_s : float;
}

let open_session ~exe ~seed ~traced ~setups c mix =
  let oracles =
    Array.to_list mix.cycle
    |> List.sort_uniq compare
    |> List.map (fun r -> (r.policy ^ "/" ^ shape_key r, oracle r))
  in
  check_inputs c ~seed mix;
  (* Set-up is timed several times; all but the last server are drained
     at once. *)
  let tag i = Printf.sprintf "%s-%s%d" mix.name (if traced then "traced-" else "") i in
  let rec boot i acc =
    let t0 = now_ns () in
    let s = spawn ~exe ~tag:(tag i) ~traced in
    let ns = wait_ready s ~t0 in
    if i + 1 < setups then begin
      ignore (stop s);
      boot (i + 1) (ns :: acc)
    end
    else (s, ns :: acc)
  in
  let server, setup_ns = boot 0 [] in
  let conns =
    List.init mix.conns (fun index ->
        { client = RC.create ~timeout:60. ~seed:(seed + index) (addr server); index; step = 0 })
  in
  {
    mix;
    server;
    conns;
    tally = { work = 0; retries = 0; health = 1; ok = 1 };
    oracles;
    setup_s = median (List.map Gc_prof.Clock.s_of_ns setup_ns);
  }

let run_window c ses ~tag ~seconds ?max_requests ?on_reply () =
  let samples, elapsed_ns = window ses.mix ses.conns ~tag ~seconds ?max_requests ?on_reply () in
  List.iter (check_reply c ses.mix ses.oracles) samples;
  ses.tally.work <- ses.tally.work + List.length samples;
  ses.tally.ok <-
    ses.tally.ok
    + List.length (List.filter (fun s -> Result.fold ~ok:is_ok ~error:(fun _ -> false) s.reply) samples);
  (samples, elapsed_ns)

(* Stats, peak RSS, drain, manifest; the server is gone afterwards. *)
let close_session c ses =
  List.iter (fun conn -> RC.close conn.client) ses.conns;
  ses.tally.retries <- List.fold_left (fun acc conn -> acc + RC.retries conn.client) 0 ses.conns;
  let st = stats ses.server in
  let rss = peak_rss_mb ~pid:(string_of_int ses.server.pid) in
  let status = stop ses.server in
  run_check c (status = Unix.WEXITED 0) "%s: gcserved did not exit 0 after SIGTERM" ses.mix.name;
  let manifest =
    match J.parse (read_file ses.server.manifest) with
    | Ok j -> j
    | Error _ | (exception Sys_error _) -> J.Null
  in
  reconcile c ses.mix ses.tally ~stats:st ~manifest;
  (st, rss)

(* Completion rates are medians over twenty consecutive segments of the
   window, each holding the same number of ok replies, so a burst of
   interference from other tenants of the host moves a few segments
   rather than the figure. *)
let segment_rates samples ~work =
  let ok =
    List.filter (fun s -> Result.is_ok s.reply) samples
    |> List.sort (fun a b -> compare a.done_ns b.done_ns)
    |> Array.of_list
  in
  let per = max 1 (Array.length ok / 20) in
  let rates f =
    if Array.length ok < 2 then [ 0. ]
    else
      List.init
        ((Array.length ok - 1) / per)
        (fun i ->
          let lo = i * per and hi = (i + 1) * per in
          let amount = ref 0. in
          for j = lo + 1 to hi do amount := !amount +. f ok.(j) done;
          !amount /. Gc_prof.Clock.s_of_ns (ok.(hi).done_ns - ok.(lo).done_ns))
  in
  (median (rates (fun _ -> 1.)), median (rates work), Array.length ok)

let latency_metrics samples elapsed_ns =
  let lats = List.map (fun s -> float_of_int s.lat_ns /. 1e6) samples in
  let n = List.length lats in
  let rps, aps, ok =
    segment_rates samples ~work:(fun s -> float_of_int (s.req.n * List.length s.req.ks))
  in
  [
    metric "throughput_rps" "1/s" rps
      ~note:
        (Printf.sprintf "median over 20 segments; %d ok replies in %.1f s" ok
           (Gc_prof.Clock.s_of_ns elapsed_ns));
    metric "accesses_per_s" "1/s" aps
      ~note:"simulated accesses in ok replies, median over 20 segments";
    metric "latency_p50_ms" "ms" (median lats) ~note:(Printf.sprintf "n=%d" n);
  ]
  @
  if tail_supported ~q:0.99 n then
    [
      metric "latency_p99_ms" "ms" (quantile 0.99 lats)
        ~note:(Printf.sprintf "n=%d, %d beyond" n (n / 100));
    ]
  else []

(* The untraced run: set-up, one second of warm-up, the timed window,
   then the end-of-run accounting. *)
let run c ~exe ~seed ~seconds ~workload =
  let mix = mix_of_name ~seed workload in
  let ses = open_session ~exe ~seed ~traced:false ~setups:5 c mix in
  ignore (run_window c ses ~tag:"w" ~seconds:1. ());
  (* gcserved's resident set grows with every request served, so peak
     RSS is read after a fixed number of replies, not at a fixed time. *)
  let rss_at = if mix.curve then 200 else 2000 in
  let replies = Atomic.make 0 and rss = ref None in
  let pid = string_of_int ses.server.pid in
  let on_reply () =
    if Atomic.fetch_and_add replies 1 + 1 = rss_at then rss := Some (peak_rss_mb ~pid)
  in
  let samples, elapsed_ns = run_window c ses ~tag:"m" ~seconds ~on_reply () in
  let served = Atomic.get replies in
  let st, rss_end = close_session c ses in
  let rss_fixed, rss_note =
    match !rss with
    | Some r -> (r, Printf.sprintf "gcserved VmHWM after %d timed replies" rss_at)
    | None -> (rss_end, Printf.sprintf "gcserved VmHWM at the end (%d replies < %d)" served rss_at)
  in
  let shed = counter st "shed" [] in
  [ metric "setup_s" "s" ses.setup_s ~note:"median of 5 spawns to first ok health" ]
  @ latency_metrics samples elapsed_ns
  @ [
        metric "peak_rss_mb" "MiB" rss_fixed ~note:rss_note;
        metric "peak_rss_end_mb" "MiB" rss_end
          ~note:(Printf.sprintf "gcserved VmHWM before drain, after %d timed replies" served);
        metric "retries" "count" (float_of_int ses.tally.retries);
        metric "shed" "count" (float_of_int shed);
      ]

(* -------------------------------------------------------------- layers *)

(* A traced server keeps one span ring per pool-task domain until it
   drains (about 0.36 MB per request), so traced windows are capped. *)
let traced_max_requests = 250

(* [reps] timings of [f], in microseconds. *)
let sample_us reps f = List.init reps (fun _ -> float_of_int (snd (timed f)) /. 1e3)

(* Per-iteration cost of [f] in microseconds: the median of five
   batches of [batch] calls, for operations too short to time singly. *)
let batch_us ?(batch = 200) f =
  median
    (List.init 5 (fun _ ->
         let (), ns = timed (fun () -> for _ = 1 to batch do f () done) in
         float_of_int ns /. 1e3 /. float_of_int batch))

let health_once ses conn =
  match Client.send_result conn (control P.Health) with
  | Error e -> failwith ("health: " ^ Client.string_of_client_error e)
  | Ok () -> (
      ses.tally.health <- ses.tally.health + 1;
      match Client.recv_result ~timeout:30. conn with
      | Ok reply when is_ok reply -> ses.tally.ok <- ses.tally.ok + 1
      | Ok _ -> failwith "health: not an ok reply"
      | Error e -> failwith ("health: " ^ Client.string_of_client_error e))

(* The reader answers health inline: socket, framing and parse, with no
   queue and no pool.  The resilient client's overhead is measured on
   alternating requests against the same server. *)
let client_probes ses =
  let conn =
    match Client.connect_result (addr ses.server) with
    | Ok conn -> conn
    | Error e -> failwith (Client.string_of_client_error e)
  in
  let rtt = median (sample_us 100 (fun () -> health_once ses conn)) in
  let rc = RC.create ~timeout:30. (addr ses.server) in
  let pairs =
    List.init 100 (fun _ ->
        let resilient =
          snd
            (timed (fun () ->
                 ses.tally.health <- ses.tally.health + 1;
                 match RC.request rc (control P.Health) with
                 | Ok reply when is_ok reply -> ses.tally.ok <- ses.tally.ok + 1
                 | _ -> failwith "health through the resilient client failed"))
        in
        let raw = snd (timed (fun () -> health_once ses conn)) in
        (float_of_int resilient /. 1e3, float_of_int raw /. 1e3))
  in
  RC.close rc;
  Client.close conn;
  (rtt, median (List.map fst pairs) -. median (List.map snd pairs))

(* One no-op task with the server's own pool configuration.  Each task
   gets a fresh domain, and a fresh domain a fresh span ring, so this
   runs before tracing starts. *)
let pool_run_us () =
  let d = Gc_serve.Server.default_config in
  let config =
    {
      (Gc_exec.Pool.default_config ()) with
      Gc_exec.Pool.domains = 1;
      deadline = Some d.deadline;
      grace = d.grace;
      retries = d.retries;
      backoff = d.backoff;
    }
  in
  median (sample_us 100 (fun () -> ignore (Gc_exec.Pool.run ~config [ (fun ~cancel:_ -> ()) ])))

(* Framing and parsing of the workload's own request and reply. *)
let codec_probes mix samples =
  let request = request_json mix ~id:"probe" mix.cycle.(0) in
  let reply =
    match List.find_map (fun s -> Result.to_option s.reply) samples with
    | Some r -> r
    | None -> failwith "no ok reply to measure framing on"
  in
  let frames = [ Gc_serve.Frame.encode request; Gc_serve.Frame.encode reply ] in
  let encode = batch_us (fun () -> ignore (Gc_serve.Frame.encode request); ignore (Gc_serve.Frame.encode reply)) in
  let decode = batch_us (fun () -> List.iter (fun f -> ignore (Gc_serve.Frame.decode f)) frames) in
  let parse =
    batch_us (fun () -> ignore (P.parse_request request); ignore (P.reply_of_json reply))
  in
  (encode, decode, parse)

let build_us mix =
  median (List.map (fun (_, r) -> median (sample_us 5 (fun () -> ignore (build r)))) (distinct_shapes mix))

let histogram_p50 metrics name labels =
  Option.bind (find_metric metrics name labels) (member_float [ "p50" ])
  |> Option.value ~default:Float.nan

type traced = {
  rows : metric list;
  p50_ms : float;
  stages : (string * float) list;
  health_rtt_us : float;
  server_events : J.t list;
}

(* The traced serving session every traced run reports: a server under
   --trace, a capped closed-loop window of [mix], then the client, pool
   and codec probes, the stats op, and the drain that writes the
   server's spans. *)
let traced_session c ~exe ~seed ~seconds mix =
  let ses = open_session ~exe ~seed ~traced:true ~setups:1 c mix in
  ignore (run_window c ses ~tag:"w" ~seconds:1. ~max_requests:20 ());
  let samples, _ =
    run_window c ses ~tag:"t" ~seconds:(seconds /. 2.) ~max_requests:traced_max_requests ()
  in
  let health_rtt_us, overhead_us = client_probes ses in
  let encode, decode, parse = codec_probes mix samples in
  let st, _ = close_session c ses in
  let spans =
    let evs = Spans.read_server_trace (Option.get ses.server.trace_file) in
    (evs, List.filter_map Spans.of_chrome_event evs)
  in
  let stages, n_requests = Spans.stage_medians (snd spans) in
  let label = op_label mix in
  let requests = counter st "requests" [ ("op", label) ] in
  let p50_ms = median (List.map (fun s -> float_of_int s.lat_ns /. 1e6) samples) in
  let rows =
    [
      metric "workload_suite.build_us" "us" (build_us mix);
      metric "frame.encode_us" "us" encode ~note:"request + reply";
      metric "frame.decode_us" "us" decode ~note:"request + reply";
      metric "protocol.parse_us" "us" parse ~note:"parse_request + reply_of_json";
      metric "client.health_rtt_us" "us" health_rtt_us;
      metric "resilient_client.overhead_us" "us" overhead_us;
      metric "resilient_client.retries_per_request" "ratio"
        (float_of_int ses.tally.retries /. float_of_int ses.tally.work);
    ]
    @ List.map
        (fun (name, v) ->
          metric ("server." ^ name ^ "_us") "us" v
            ~note:(Printf.sprintf "median self time over %d requests" n_requests))
        stages
    @ [
        metric "server.latency_p50_us" "us" (histogram_p50 st "latency_us" [ ("op", label) ]);
        metric "server.queue_wait_p50_us" "us"
          (histogram_p50 st "queue_wait_us" [ ("outcome", "executed") ]);
        metric "codel.shed_ratio" "ratio"
          (float_of_int (counter st "shed" []) /. float_of_int requests);
      ]
  in
  { rows; p50_ms; stages; health_rtt_us; server_events = fst spans }

(* A shorter untraced window, for the tracing overhead and the stage
   reconciliation of a traced serving run. *)
let untraced_p50 c ~exe ~seed ~seconds mix =
  let ses = open_session ~exe ~seed ~traced:false ~setups:1 c mix in
  ignore (run_window c ses ~tag:"w" ~seconds:1. ());
  let samples, _ = run_window c ses ~tag:"m" ~seconds:(seconds /. 2.) () in
  ignore (close_session c ses);
  median (List.map (fun s -> float_of_int s.lat_ns /. 1e6) samples)
