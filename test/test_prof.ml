(* Gc_prof: the span tracer (enter/leave/emit, the process-wide ring,
   restart), the scoped Span.with_ wrapper, nesting under concurrent Pool
   tasks, the Chrome trace-event export (golden file), the
   zero-allocation guarantee of the disabled path — including on the
   simulator access loop — and the gcprof perf-regression compare gate,
   with its exit-code contract.

   Tracer state is global; every test that records starts with
   [Tracer.start] (a fresh ring discards earlier spans) and stops before
   dumping, so order between tests does not matter. *)

module Json = Gc_obs.Json
module Tracer = Gc_prof.Tracer
module Span = Gc_prof.Span
module Chrome = Gc_prof.Chrome
module Pool = Gc_exec.Pool

let gcprof = "../bin/gcprof.exe"

let find_spans name spans =
  List.filter (fun s -> s.Tracer.name = name) spans

let span_interval s = (s.Tracer.ts_ns, s.Tracer.ts_ns + s.Tracer.dur_ns)

(* ---------------------------------------------------------------- tracer *)

let test_enter_leave_dump () =
  Tracer.start ();
  Alcotest.(check bool) "enabled after start" true (Tracer.enabled ());
  let outer = Tracer.enter ~args:[ ("k", "v") ] "outer" in
  let inner = Tracer.enter "inner" in
  Tracer.leave inner;
  Tracer.leave outer;
  Tracer.stop ();
  Alcotest.(check bool) "disabled after stop" false (Tracer.enabled ());
  let spans = Tracer.dump () in
  Alcotest.(check int) "both spans dumped" 2 (List.length spans);
  let o =
    match find_spans "outer" spans with
    | [ s ] -> s
    | _ -> Alcotest.fail "no outer span"
  in
  let i =
    match find_spans "inner" spans with
    | [ s ] -> s
    | _ -> Alcotest.fail "no inner span"
  in
  Alcotest.(check (list (pair string string))) "args recorded"
    [ ("k", "v") ] o.Tracer.args;
  Alcotest.(check bool) "inner nested in outer" true
    (let o0, o1 = span_interval o and i0, i1 = span_interval i in
     o0 <= i0 && i1 <= o1);
  Alcotest.(check bool) "sorted by start time" true
    (match spans with
    | [ a; b ] -> a.Tracer.ts_ns <= b.Tracer.ts_ns
    | _ -> false)

let test_emit_premeasured () =
  Tracer.start ();
  Tracer.emit ~args:[ ("id", "9") ] ~tid:42 ~ts_ns:500 ~dur_ns:100 "past";
  Tracer.stop ();
  match Tracer.dump () with
  | [ s ] ->
      Alcotest.(check string) "name" "past" s.Tracer.name;
      Alcotest.(check int) "caller timestamp kept" 500 s.Tracer.ts_ns;
      Alcotest.(check int) "caller duration kept" 100 s.Tracer.dur_ns;
      Alcotest.(check int) "caller track kept" 42 s.Tracer.tid;
      Alcotest.(check int) "emitted spans record no words" 0
        s.Tracer.minor_words
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_disabled_is_null () =
  Tracer.stop ();
  let t = Tracer.enter "nope" in
  Alcotest.(check bool) "negative ticket when disabled" true (t < 0);
  Tracer.leave t;
  Tracer.emit ~ts_ns:0 ~dur_ns:1 "nope";
  Alcotest.(check int) "with_ still runs the body" 41
    (Span.with_ "nope" (fun () -> 41))

let test_restart_discards () =
  Tracer.start ();
  let straddling = Tracer.enter "straddling" in
  Tracer.leave (Tracer.enter "stale");
  Tracer.start ();
  let fresh = Tracer.enter "fresh" in
  Tracer.leave straddling;
  Alcotest.(check int) "a ticket from before the restart closes nothing" 0
    (List.length (Tracer.dump ()));
  Tracer.leave fresh;
  Tracer.stop ();
  let spans = Tracer.dump () in
  Alcotest.(check int) "only the post-restart span" 1 (List.length spans);
  Alcotest.(check string) "fresh" "fresh" (List.hd spans).Tracer.name

let test_ring_wraparound () =
  Tracer.start ~capacity:4 ();
  for i = 1 to 10 do
    Tracer.leave (Tracer.enter (Printf.sprintf "s%d" i))
  done;
  Tracer.stop ();
  let spans = Tracer.dump () in
  Alcotest.(check bool)
    (Printf.sprintf "at most 4 of 10 spans survive (got %d)" (List.length spans))
    true
    (List.length spans <= 4);
  Alcotest.(check int) "the latest span survives" 1
    (List.length (find_spans "s10" spans))

(* Run [task] on a fresh domain.  The pool hands a finished task's domain
   to the next task, so these tests spawn their own: a ring kept per
   domain would show only when every iteration records from a new one. *)
let on_own_domain task = Domain.join (Domain.spawn task)

let test_ring_bounded_across_domains () =
  Tracer.start ~capacity:64 ();
  for d = 0 to 7 do
    on_own_domain (fun () ->
        for i = 0 to 31 do
          Tracer.leave (Tracer.enter (Printf.sprintf "d%d.s%d" d i))
        done)
  done;
  Tracer.stop ();
  let spans = Tracer.dump () in
  Alcotest.(check bool)
    (Printf.sprintf "at most 64 spans kept across 8 domains (got %d)"
       (List.length spans))
    true
    (List.length spans <= 64);
  Alcotest.(check int) "the last span recorded survives" 1
    (List.length (find_spans "d7.s31" spans))

let test_memory_flat_across_domains () =
  Tracer.start ();
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live_words () in
  for _ = 1 to 200 do
    on_own_domain (fun () -> Span.with_ "one" (fun () -> ()))
  done;
  Tracer.stop ();
  let grown = live_words () - before in
  if grown >= 1_000_000 then
    Alcotest.failf "live heap grew %d words over 200 traced domains" grown

let test_span_minor_words_exact () =
  Tracer.start ();
  let outer = Tracer.enter "outer" in
  let inner = Tracer.enter "inner" in
  ignore (Sys.opaque_identity (Array.make 100 0));
  Tracer.leave inner;
  Tracer.leave outer;
  let empty = Tracer.enter "empty" in
  Tracer.leave empty;
  Tracer.stop ();
  let words name =
    match find_spans name (Tracer.dump ()) with
    | [ s ] -> s.Tracer.minor_words
    | _ -> Alcotest.failf "no %s span" name
  in
  (* 100 fields and a header, counted when they are allocated, not at
     the next minor collection. *)
  Alcotest.(check int) "Array.make 100 is 101 minor words" 101 (words "inner");
  Alcotest.(check int) "the enclosing span sees the same words" 101
    (words "outer");
  Alcotest.(check int) "an empty span records 0" 0 (words "empty")

let test_span_with_exception () =
  Tracer.start ();
  (match Span.with_ "boom" (fun () -> raise Exit) with
  | () -> Alcotest.fail "exception swallowed"
  | exception Exit -> ());
  Alcotest.(check int) "value passes through" 42
    (Span.with_ "ok" (fun () -> 42));
  Tracer.stop ();
  let spans = Tracer.dump () in
  Alcotest.(check int) "raising span still closed" 1
    (List.length (find_spans "boom" spans));
  Alcotest.(check int) "value span closed" 1 (List.length (find_spans "ok" spans))

(* ----------------------------------------------------------chrome export *)

(* The golden file pins the trace-event schema Perfetto depends on.
   After an intentional change, regenerate with
   [dune exec test/regen_golden.exe -- chrome > test/golden/chrome_trace.json]. *)
let test_chrome_golden () =
  let rendered =
    Format.asprintf "%a@." Json.pp (Chrome.to_json Test_util.chrome_fixture_spans)
  in
  let golden =
    let ic = open_in_bin "golden/chrome_trace.json" in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text
  in
  Alcotest.(check string) "chrome trace matches the golden file" golden rendered

let test_chrome_event_fields () =
  let s = List.hd Test_util.chrome_fixture_spans in
  let j = Chrome.event s in
  let member name =
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "event has no %S" name
  in
  Alcotest.(check string) "complete event" "X"
    (Json.get_string (member "ph"));
  Test_util.check_float ~eps:1e-9 "ts is microseconds"
    (float_of_int s.Tracer.ts_ns /. 1000.)
    (Json.get_float (member "ts"));
  Test_util.check_float ~eps:1e-9 "dur is microseconds"
    (float_of_int s.Tracer.dur_ns /. 1000.)
    (Json.get_float (member "dur"));
  match Json.member "minor_words" (member "args") with
  | Some (Json.Float w) ->
      Test_util.check_float ~eps:1e-9 "minor words in args"
        (float_of_int s.Tracer.minor_words)
        w
  | _ -> Alcotest.fail "args carry no minor_words"

(* ------------------------------------------------------- pool concurrency *)

(* Same-track spans must nest: any two intervals are disjoint or one
   contains the other. *)
let well_nested spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid s.Tracer.tid) in
      Hashtbl.replace by_tid s.Tracer.tid (s :: prev))
    spans;
  Hashtbl.fold
    (fun _tid group ok ->
      ok
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 a == b
                 ||
                 let a0, a1 = span_interval a and b0, b1 = span_interval b in
                 a1 <= b0 || b1 <= a0
                 || (a0 <= b0 && b1 <= a1)
                 || (b0 <= a0 && a1 <= b1))
               group)
           group)
    by_tid true

let test_pool_spans_nest () =
  Tracer.start ();
  let tasks =
    List.init 4 (fun i ~cancel:_ ->
        (* Enough work for a measurable span. *)
        let acc = ref 0 in
        for j = 0 to 50_000 do
          acc := !acc + ((i + j) mod 7)
        done;
        !acc)
  in
  let outcomes = Pool.run tasks in
  Tracer.stop ();
  List.iter
    (function
      | Pool.Done _ -> ()
      | _ -> Alcotest.fail "pool task did not complete")
    outcomes;
  let spans = Tracer.dump () in
  let tasks_spans = find_spans "pool.task" spans in
  let attempts = find_spans "pool.attempt" spans in
  let queued = find_spans "pool.queued" spans in
  Alcotest.(check int) "one pool.task span per task" 4 (List.length tasks_spans);
  Alcotest.(check int) "one pool.attempt per first try" 4 (List.length attempts);
  Alcotest.(check int) "one pool.queued per task" 4 (List.length queued);
  Alcotest.(check bool) "same-track spans nest" true (well_nested spans);
  (* Every attempt is contained in some task span on its track. *)
  List.iter
    (fun att ->
      let a0, a1 = span_interval att in
      if
        not
          (List.exists
             (fun t ->
               let t0, t1 = span_interval t in
               t.Tracer.tid = att.Tracer.tid && t0 <= a0 && a1 <= t1)
             tasks_spans)
      then Alcotest.fail "pool.attempt outside every pool.task")
    attempts

let test_pool_retry_spans () =
  Tracer.start ();
  let flaky ~cancel:_ =
    if Pool.attempt () = 1 then raise (Pool.Transient "first try fails");
    41 + Pool.attempt ()
  in
  let config = { (Pool.default_config ()) with Pool.backoff = 0.001 } in
  let outcomes = Pool.run ~config [ flaky ] in
  Tracer.stop ();
  (match outcomes with
  | [ Pool.Done 43 ] -> ()
  | _ -> Alcotest.fail "flaky task did not succeed on attempt 2");
  let spans = Tracer.dump () in
  let attempts = find_spans "pool.attempt" spans in
  Alcotest.(check int) "a pool.attempt span per try" 2 (List.length attempts);
  Alcotest.(check int) "one pool.task span around both" 1
    (List.length (find_spans "pool.task" spans));
  let tries =
    List.sort compare
      (List.filter_map
         (fun s -> List.assoc_opt "attempt" s.Tracer.args)
         attempts)
  in
  Alcotest.(check (list string)) "attempts numbered" [ "1"; "2" ] tries

(* ------------------------------------------------------- zero allocation *)

let measure f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_zero_alloc () =
  Tracer.stop ();
  (* [Gc.minor_words] boxes its float result inside the bracket, so the
     empty bracket's cost is the calibration baseline; the disabled
     enter/leave path must add exactly nothing to it. *)
  let baseline = measure (fun () -> ()) in
  let cost =
    measure (fun () ->
        for _ = 1 to 10_000 do
          Tracer.leave (Tracer.enter "hot")
        done)
  in
  Alcotest.(check (float 0.))
    "10k disabled enter/leave pairs allocate zero words" baseline cost

let test_enabled_zero_alloc () =
  Tracer.start ();
  (* Calibrated like the disabled path: recording a span writes into a
     preallocated slot and reads unboxed counters, so 10k enabled pairs
     add nothing to the empty bracket. *)
  let baseline = measure (fun () -> ()) in
  let cost =
    measure (fun () ->
        for _ = 1 to 10_000 do
          Tracer.leave (Tracer.enter "hot")
        done)
  in
  Tracer.stop ();
  Alcotest.(check (float 0.))
    "10k enabled enter/leave pairs allocate zero words" baseline cost

let test_simulator_hook_zero_alloc () =
  Tracer.stop ();
  let blocks = Gc_trace.Block_map.uniform ~block_size:4 in
  let requests = Array.init 20_000 (fun i -> i * 7 mod 512) in
  let trace = Gc_trace.Trace.make blocks requests in
  let run progress =
    let p = Gc_cache.Registry.make "lru" ~k:64 ~blocks ~seed:1 in
    measure (fun () ->
        ignore (Gc_cache.Simulator.run ~check:false ?progress p trace))
  in
  let plain = run None in
  let progress, finish = Gc_cache.Obs_run.span_hooks () in
  let hooked = run (Some progress) in
  finish ();
  let per_access = (hooked -. plain) /. float_of_int (Array.length requests) in
  if per_access > 0.01 then
    Alcotest.failf
      "disabled span hook allocates %.4f minor words per access (plain %.0f, hooked %.0f)"
      per_access plain hooked

(* ------------------------------------------------------------- gcprof cli *)

(* Run a shell command, returning (exit code, combined stdout+stderr). *)
let exec cmd =
  let out = Filename.temp_file "gc_prof" ".out" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out)) in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let write_json path j =
  let oc = open_out_bin path in
  output_string oc (Json.to_string j);
  output_string oc "\n";
  close_out oc

let temp_json name j =
  let path = Filename.temp_file ("gc_prof_" ^ name) ".json" in
  write_json path j;
  path

(* The minimal manifest shape `gcprof compare` gates on: extra.perf rows. *)
let perf_manifest rows =
  let row (policy, ns_per_access, minor_per_access) =
    Json.Obj
      [
        ("policy", Json.String policy);
        ("ns_per_run", Json.Float (ns_per_access *. 1000.));
        ("ns_per_access", Json.Float ns_per_access);
        ("minor_allocated", Json.Float (minor_per_access *. 1000.));
        ("minor_words_per_access", Json.Float minor_per_access);
      ]
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("tool", Json.String "bench");
      ("command", Json.String "perf");
      ("runs", Json.Array []);
      ("extra", Json.Obj [ ("perf", Json.Array (List.map row rows)) ]);
    ]

let compare_exit old_rows new_rows =
  let old_path = temp_json "old" (perf_manifest old_rows) in
  let new_path = temp_json "new" (perf_manifest new_rows) in
  let code, out = exec (Printf.sprintf "%s compare %s %s" gcprof old_path new_path) in
  Sys.remove old_path;
  Sys.remove new_path;
  (code, out)

let baseline_rows = [ ("lru", 1000., 40.); ("fifo", 800., 30.) ]

let test_gcprof_compare_ok () =
  let code, out = compare_exit baseline_rows baseline_rows in
  Alcotest.(check int) "identical runs exit 0" 0 code;
  Alcotest.(check bool) "says no regressions" true
    (Test_util.contains out "no regressions")

let test_gcprof_compare_within_threshold () =
  (* +8% is inside the 10% gate. *)
  let code, _ =
    compare_exit baseline_rows [ ("lru", 1080., 40.); ("fifo", 800., 30.) ]
  in
  Alcotest.(check int) "8% slower still passes" 0 code

let test_gcprof_compare_regression () =
  let code, out =
    compare_exit baseline_rows [ ("lru", 1250., 40.); ("fifo", 800., 30.) ]
  in
  Alcotest.(check int) "25% slower exits 1" 1 code;
  Alcotest.(check bool) "names the regression" true
    (Test_util.contains out "REGRESSED")

let test_gcprof_compare_alloc_growth () =
  let code, out =
    compare_exit baseline_rows [ ("lru", 1000., 60.); ("fifo", 800., 30.) ]
  in
  Alcotest.(check int) "+50% minor words exits 1" 1 code;
  Alcotest.(check bool) "names the allocation growth" true
    (Test_util.contains out "ALLOC GREW")

let test_gcprof_compare_missing_policy () =
  let code, out = compare_exit baseline_rows [ ("lru", 1000., 40.) ] in
  Alcotest.(check int) "policy missing from NEW exits 1" 1 code;
  Alcotest.(check bool) "says which disappeared" true
    (Test_util.contains out "MISSING")

let test_gcprof_compare_threshold_flag () =
  (* The same 25% regression passes under an explicit looser gate. *)
  let old_path = temp_json "old" (perf_manifest baseline_rows) in
  let new_path =
    temp_json "new"
      (perf_manifest [ ("lru", 1250., 40.); ("fifo", 800., 30.) ])
  in
  let code, _ =
    exec (Printf.sprintf "%s compare --threshold 30 %s %s" gcprof old_path new_path)
  in
  Sys.remove old_path;
  Sys.remove new_path;
  Alcotest.(check int) "looser threshold passes" 0 code

let test_gcprof_compare_errors () =
  let corrupt = Filename.temp_file "gc_prof_corrupt" ".json" in
  let oc = open_out_bin corrupt in
  output_string oc "{not json";
  close_out oc;
  let ok = temp_json "ok" (perf_manifest baseline_rows) in
  let code, _ = exec (Printf.sprintf "%s compare %s %s" gcprof corrupt ok) in
  Alcotest.(check int) "corrupt manifest exits 1" 1 code;
  let code, _ = exec (Printf.sprintf "%s compare %s" gcprof ok) in
  Alcotest.(check int) "missing positional arg exits 2" 2 code;
  Sys.remove corrupt;
  Sys.remove ok

let () =
  Alcotest.run "prof"
    [
      ( "tracer",
        [
          Alcotest.test_case "enter/leave/dump" `Quick test_enter_leave_dump;
          Alcotest.test_case "emit pre-measured" `Quick test_emit_premeasured;
          Alcotest.test_case "disabled is null" `Quick test_disabled_is_null;
          Alcotest.test_case "restart discards" `Quick test_restart_discards;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "one ring across domains" `Quick
            test_ring_bounded_across_domains;
          Alcotest.test_case "memory flat across domains" `Quick
            test_memory_flat_across_domains;
          Alcotest.test_case "with_ closes on exception" `Quick
            test_span_with_exception;
          Alcotest.test_case "spans record exact minor words" `Quick
            test_span_minor_words_exact;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "golden file" `Quick test_chrome_golden;
          Alcotest.test_case "event fields" `Quick test_chrome_event_fields;
        ] );
      ( "pool",
        [
          Alcotest.test_case "spans nest under concurrency" `Quick
            test_pool_spans_nest;
          Alcotest.test_case "retry attempts traced" `Quick test_pool_retry_spans;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "disabled path is allocation-free" `Quick
            test_disabled_zero_alloc;
          Alcotest.test_case "enabled path is allocation-free" `Quick
            test_enabled_zero_alloc;
          Alcotest.test_case "simulator hook adds nothing" `Quick
            test_simulator_hook_zero_alloc;
        ] );
      ( "gcprof",
        [
          Alcotest.test_case "compare ok" `Quick test_gcprof_compare_ok;
          Alcotest.test_case "compare within threshold" `Quick
            test_gcprof_compare_within_threshold;
          Alcotest.test_case "compare regression" `Quick
            test_gcprof_compare_regression;
          Alcotest.test_case "compare alloc growth" `Quick
            test_gcprof_compare_alloc_growth;
          Alcotest.test_case "compare missing policy" `Quick
            test_gcprof_compare_missing_policy;
          Alcotest.test_case "compare --threshold" `Quick
            test_gcprof_compare_threshold_flag;
          Alcotest.test_case "compare error exits" `Quick
            test_gcprof_compare_errors;
        ] );
    ]
