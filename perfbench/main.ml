(* perfbench: one command for both user paths of the repository.

   An untraced run of a workload reports its end-to-end metrics; a
   traced run (--trace 1) reports the per-layer metrics.  With
   --workload all (the default) every workload runs both ways, each in a
   process of its own.  The last line of standard output is the JSON
   result; the exit code is non-zero if any correctness check failed.
   Workloads, metrics and predictions: perfbench/README.md. *)

open Util
module J = Gc_obs.Json

let workloads = [ "replay"; "serve-small"; "serve-curve" ]

(* The names BENCHMARK.json lists; every run reports exactly these. *)
let end_to_end = [ "latency_p50_ms"; "throughput_rps"; "accesses_per_s"; "peak_rss_mb"; "setup_s" ]

let per_layer =
  [ "trace_io.decode_ns_per_access"; "trace_io.bytes_per_access" ]
  @ List.concat_map
      (fun p ->
        let p = Replay.key p in
        [ "policy." ^ p ^ ".ns_per_access"; "policy." ^ p ^ ".minor_words_per_access" ])
      (Replay.policies @ [ "lru-k" ])
  @ List.map (fun p -> "policy." ^ Replay.key p ^ ".sideload_use_ratio") Replay.sideload_policies
  @ [
      "simulator.bookkeeping_ns_per_access";
      "simulator.bookkeeping_minor_words_per_access";
      "simulator.audit_ns_per_access";
      "simulator.audit_minor_words_per_access";
      "obs_run.manifest_ms";
      "workload_suite.build_us";
      "frame.encode_us";
      "frame.decode_us";
      "protocol.parse_us";
      "client.health_rtt_us";
      "resilient_client.overhead_us";
      "resilient_client.retries_per_request";
      "pool.run_us";
    ]
  @ List.map (fun s -> "server." ^ s ^ "_us") Spans.stage_names
  @ [ "server.latency_p50_us"; "server.queue_wait_p50_us"; "codel.shed_ratio"; "tracing_overhead_ratio" ]

(* --------------------------------------------------------- environment *)

(* CPUs this process may run on, from the kernel's allowed list. *)
let allowed_cpus () =
  match field "Cpus_allowed_list" (read_file "/proc/self/status") with
  | None -> 0
  | Some list ->
      String.split_on_char ',' list
      |> List.fold_left
           (fun acc range ->
             match String.split_on_char '-' range |> List.map int_of_string_opt with
             | [ Some a; Some b ] -> acc + b - a + 1
             | [ Some _ ] -> acc + 1
             | _ -> acc)
           0

let command_output prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (String.trim out)
  | _ -> None

(* Only a checkout that is itself a git work tree reports a commit. *)
let git () =
  if not (Sys.file_exists ".git") then ("unknown (not a git checkout)", "unknown")
  else
    match (command_output "git" [ "rev-parse"; "HEAD" ], command_output "git" [ "status"; "--porcelain" ]) with
    | Some commit, Some status -> (commit, if status = "" then "clean" else "dirty")
    | _ -> ("unknown", "unknown")

let environment () =
  let commit, tree = git () in
  J.Obj
    [
      ( "cpu_model",
        J.String
          (Option.value
             (field "model name" (try read_file "/proc/cpuinfo" with Sys_error _ -> ""))
             ~default:"unknown") );
      ("nproc", J.Int (allowed_cpus ()));
      ("ocaml_version", J.String Sys.ocaml_version);
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("ocamlrunparam", J.String (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
      ("git_commit", J.String commit);
      ("git_tree", J.String tree);
    ]

let method_of = function
  | "replay" ->
      "in-process, one thread: Trace_io.load_binary_result, Obs_run.run_policy_result \
       ~check:true ~k:4096 per policy, Obs_run.manifest_of_outcomes, \
       Gc_obs.Export.write_json_atomic; set-up timed 3 times (median); warm-up: the raw \
       Policy.access loop and Simulator.run ~check:false over every policy, discarded from \
       timing; timed passes until the window ends; policy order shuffled from the seed for \
       every pass"
  | "serve-small" ->
      "closed loop, 1 connection (Resilient_client, default retry policy) to gcserved serve \
       --workers 1 on a Unix socket; set-up timed 5 times (median); 1 s warm-up discarded; \
       sim requests of 256 accesses at k=64 cycling lru/block-lru over the eight suite \
       workloads and four request seeds drawn from the seed"
  | _ ->
      "closed loop, 2 connections (2 threads, one Resilient_client each) to gcserved serve \
       --workers 1 on a Unix socket; set-up timed 5 times (median); 1 s warm-up discarded; \
       miss-curve requests over ks 256,1024,4096 alternating lru on 20000-access zipf and \
       block-lru on 5000-access zipf, two request seeds each drawn from the seed"

(* ---------------------------------------------------------------- runs *)

(* How far the server's stage self times plus the raw health round trip
   may sit from a client p50.  Sums of medians are not medians of sums,
   and the untraced p50 comes from another server some seconds earlier;
   dropping pool overhead (serve-small) or queue wait (serve-curve) from
   the sum would be off by half or more. *)
let serve_tolerance = 0.30

let start_tracing () = Gc_prof.Tracer.start ~capacity:(1 lsl 15) ()

let traced c ~exe ~seed ~seconds w =
  let pool_run = metric "pool.run_us" "us" (Serve.pool_run_us ()) in
  let replay_rows, session, extra =
    if w = "replay" then
      let rows = Replay.traced c ~seed ~start_tracing in
      (rows, Serve.traced_session c ~exe ~seed ~seconds (Serve.small ~seed), [])
    else begin
      let mix = Serve.mix_of_name ~seed w in
      let rows = Replay.traced_layers c ~seed in
      let plain_p50 = Serve.untraced_p50 c ~exe ~seed ~seconds mix in
      start_tracing ();
      let t = Serve.traced_session c ~exe ~seed ~seconds mix in
      let stages = Util.sum (List.map snd t.stages) in
      let total_us = stages +. t.health_rtt_us in
      let against label p50_ms =
        let share = total_us /. (p50_ms *. 1000.) in
        Printf.printf
          "reconcile %s: server stage self times %.0f us + raw health round trip %.0f us = \
           %.0f us vs %s client p50 %.0f us (ratio %.3f, tolerance +/-%.0f%%)\n"
          w stages t.health_rtt_us total_us label (p50_ms *. 1000.) share
          (100. *. serve_tolerance);
        run_check c
          (Float.abs (share -. 1.) <= serve_tolerance)
          "%s: stage sum is %.3f of the %s client p50" w share label
      in
      against "traced" t.p50_ms;
      (* serve-small's p50 is set by the pool's 2 ms monitor tick and holds
         from one window to the next, so its stages must also account for
         the untraced end-to-end figure.  serve-curve's is CPU-bound and
         drifts with the host between the two windows. *)
      if w = "serve-small" then against "untraced" plain_p50;
      ( rows,
        t,
        [
          metric "tracing_overhead_ratio" "ratio" (t.p50_ms /. plain_p50)
            ~note:"traced / untraced client p50";
        ] )
    end
  in
  Gc_prof.Tracer.stop ();
  let mine = Gc_prof.Tracer.dump () in
  let path = out_path (w ^ "-trace.json") in
  Spans.write_merged path ~mine ~server:session.server_events;
  Spans.print_self_times
    (List.map Spans.of_tracer mine @ List.filter_map Spans.of_chrome_event session.server_events);
  Printf.printf "merged Chrome trace-event file: %s\n" path;
  (pool_run :: replay_rows) @ session.rows @ extra

let print_metrics title ms =
  Printf.printf "%s\n  %-46s %16s  %-6s %s\n" title "metric" "value" "unit" "note";
  List.iter
    (fun m -> Printf.printf "  %-46s %16.6g  %-6s %s\n" m.name m.value m.unit_ m.note)
    ms

let result_json c ~names ms =
  let missing = List.filter (fun n -> not (List.exists (fun m -> m.name = n) ms)) names in
  List.iter (fun n -> run_check c false "metric %s was not measured" n) missing;
  J.Obj
    [
      ("correct", J.Bool (c.messages = []));
      ("attempted", J.Int c.attempted);
      ("failed", J.Int c.failed);
      ( "metrics",
        J.Obj
          (List.filter_map
             (fun n ->
               List.find_opt (fun m -> m.name = n) ms
               |> Option.map (fun m ->
                      (n, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit_) ])))
             names) );
    ]

let record_path w trace = out_path (Printf.sprintf "%s-trace%d-result.json" w trace)

let run_one ~exe ~seed ~seconds ~trace w =
  let c = new_checks () in
  let env = environment () in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\nenvironment %s\nmethod: %s\n%!" w
    seed seconds trace (J.to_string env) (method_of w);
  let ms =
    if trace = 1 then traced c ~exe ~seed ~seconds w
    else if w = "replay" then Replay.run c ~seed ~seconds
    else Serve.run c ~exe ~seed ~seconds ~workload:w
  in
  let names = if trace = 1 then per_layer else end_to_end in
  let line = result_json c ~names ms in
  let ms =
    ms
    @ [
        metric "error_ratio" "ratio"
          (float_of_int c.failed /. float_of_int (max 1 c.attempted))
          ~note:(Printf.sprintf "%d failed of %d attempted" c.failed c.attempted);
      ]
  in
  print_metrics (if trace = 1 then "per-layer metrics" else "end-to-end metrics") ms;
  Gc_obs.Export.write_json_atomic (record_path w trace)
    (J.Obj
       [
         ("workload", J.String w);
         ("seed", J.Int seed);
         ("seconds", J.Float seconds);
         ("trace", J.Int trace);
         ("method", J.String (method_of w));
         ("environment", env);
         ("result", line);
         ( "all_metrics",
           J.Array
             (List.map
                (fun m ->
                  J.Obj
                    [
                      ("name", J.String m.name);
                      ("value", J.Float m.value);
                      ("unit", J.String m.unit_);
                      ("note", J.String m.note);
                    ])
                ms) );
         ("failures", J.Array (List.rev_map (fun s -> J.String s) c.messages));
       ]);
  print_endline (J.to_string line);
  if c.messages <> [] then exit 1

(* Every workload, untraced then traced, each in a process of its own so
   that peak RSS belongs to one workload. *)
let run_all ~exe ~seed ~seconds =
  let runs = List.concat_map (fun w -> [ (w, 0); (w, 1) ]) workloads in
  let statuses =
    List.map
      (fun (w, t) ->
        let args =
          [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; string_of_int t; "--server"; exe ]
        in
        let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
        snd (Unix.waitpid [] pid) = Unix.WEXITED 0)
      runs
  in
  let lines =
    List.map
      (fun (w, t) ->
        match J.parse (read_file (record_path w t)) with
        | Ok doc -> (w, t, member [ "result" ] doc)
        | Error _ | (exception Sys_error _) -> (w, t, None))
      runs
  in
  Printf.printf "summary (seed %d):\n" seed;
  List.iter
    (fun (w, t, r) ->
      Printf.printf "  %-12s trace=%d %s\n" w t
        (match r with Some r -> J.to_string r | None -> "no result"))
    lines;
  let total key = List.fold_left (fun acc (_, _, r) -> acc + Option.value (Option.bind r (member_int [ key ])) ~default:0) 0 lines in
  let correct = List.for_all Fun.id statuses && List.for_all (fun (_, _, r) -> Option.bind r (member [ "correct" ]) = Some (J.Bool true)) lines in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int (total "attempted"));
            ("failed", J.Int (total "failed"));
            ( "metrics",
              J.Obj
                (List.concat_map
                   (fun (w, t, r) ->
                     match Option.bind r (member [ "metrics" ]) with
                     | Some (J.Obj ms) when t = 0 -> List.map (fun (n, v) -> (w ^ "." ^ n, v)) ms
                     | _ -> [])
                   lines) );
          ]));
  if not correct then exit 1

let () =
  let workload = ref "all" and seed = ref Pinned.default_seed and seconds = ref 30. in
  let trace = ref 0 and exe = ref "_build/default/bin/gcserved.exe" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME replay | serve-small | serve-curve | all (default)");
      ("--seed", Arg.Set_int seed, Printf.sprintf "N workload seed (default %d)" Pinned.default_seed);
      ("--seconds", Arg.Set_float seconds, "S length of the timed window (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--server", Arg.Set_string exe, "EXE the gcserved binary to drive");
    ]
  in
  let usage = "perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload ("all" :: workloads) && (!trace = 0 || !trace = 1) && !seconds > 0.)
  then begin
    Arg.usage specs usage;
    exit 2
  end;
  (* Children and their sockets go on every exit path: a failed check,
     an exception, or a signal. *)
  at_exit Serve.kill_all;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun (s, code) -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ];
  if !workload = "all" then run_all ~exe:!exe ~seed:!seed ~seconds:!seconds
  else run_one ~exe:!exe ~seed:!seed ~seconds:!seconds ~trace:!trace !workload
