(* Tests for Gc_lint: one golden fixture per rule (the convention is that
   every new rule ships with one — see doc/LINT.md), expression and
   binding suppression, path scoping (Rules.applies, and discovery never
   entering the fixture corpus), the gclint binary's exit-code contract
   and stable --json surfaces, and finally the self-check: the repo's own
   tree must be lint-clean.

   Fixtures live in lint_fixtures/ and only ever need to PARSE — they are
   never compiled, so they can reference modules that do not exist.  The
   engine is pointed at them with [as_path] so path-scoped rules see a
   lib/ or bin/ location.  Cwd is _build/default/test; the fixtures are
   dune deps, so they are present there, and the gclint binary lives at
   ../bin/gclint.exe. *)

open Gc_lint

let gclint = "../bin/gclint.exe"
let fixtures = "lint_fixtures"

let check ~as_path file =
  List.map Finding.to_string (Engine.check_file ~as_path ~root:fixtures file)

let golden name ~as_path file expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) name expected (check ~as_path file))

(* Run a shell command, returning (exit code, combined stdout+stderr). *)
let exec cmd =
  let out = Filename.temp_file "gc_lint" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out))
  in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------- one golden per rule *)

let fixture_tests =
  [
    golden "spawn-outside-pool" ~as_path:"lib/spawn.ml" "spawn.ml"
      [
        "lib/spawn.ml:2:14: error spawn-outside-pool: raw Domain.spawn \
         outside the supervised runtime (fix: run the task through \
         Gc_exec.Pool.run (lib/exec owns spawning))";
        "lib/spawn.ml:3:9: error spawn-outside-pool: raw Thread.create \
         outside the supervised runtime (fix: run the task through \
         Gc_exec.Pool.run (lib/exec owns spawning))";
      ];
    golden "swallowed-cancellation" ~as_path:"lib/swallow.ml" "swallow.ml"
      [
        "lib/swallow.ml:5:34: error swallowed-cancellation: catch-all \
         exception handler can swallow cooperative cancellation (fix: \
         narrow the pattern, or re-raise: `| (Cancel.Cancelled _ | \
         Pool.Transient _) as e -> raise e` before the catch-all)";
      ];
    golden "exit-contract" ~as_path:"bin/exitc.ml" "exitc.ml"
      [
        "bin/exitc.ml:4:14: error exit-contract: failwith bypasses the CLI \
         exit-code contract (fix: raise through \
         Cli_common.fail_usage/fail_runtime instead)";
        "bin/exitc.ml:5:16: error exit-contract: exit bypasses the \
         Cli_common.eval exit-code contract (fix: raise through \
         Cli_common.fail_usage/fail_runtime instead)";
        "bin/exitc.ml:6:21: error exit-contract: assert false aborts \
         outside the exit-code contract (fix: raise through \
         Cli_common.fail_usage/fail_runtime instead)";
      ];
    golden "nondeterministic-rng" ~as_path:"lib/rng.ml" "rng.ml"
      [
        "lib/rng.ml:3:15: error nondeterministic-rng: Stdlib.Random breaks \
         replayable runs (fix: thread a seeded Gc_trace.Rng.t through the \
         call site)";
        "lib/rng.ml:4:19: error nondeterministic-rng: Stdlib.Random breaks \
         replayable runs (fix: thread a seeded Gc_trace.Rng.t through the \
         call site)";
      ];
    golden "raw-artifact-write" ~as_path:"lib/artifact.ml" "artifact.ml"
      [
        "lib/artifact.ml:3:10: error raw-artifact-write: open_out creates \
         a file outside the crash-safe Export path (fix: write through \
         Gc_obs.Export (write_string_atomic/write_json_atomic))";
        "lib/artifact.ml:6:3: error raw-artifact-write: \
         Out_channel.with_open_text creates a file outside the crash-safe \
         Export path (fix: write through Gc_obs.Export \
         (write_string_atomic/write_json_atomic))";
      ];
    golden "unsafe-deser" ~as_path:"lib/deser.ml" "deser.ml"
      [
        "lib/deser.ml:2:26: error unsafe-deser: Marshal.from_channel \
         trusts its input's shape (fix: decode through a checked parser \
         (Trace_io / Gc_obs.Json style))";
        "lib/deser.ml:3:14: error unsafe-deser: Obj.magic defeats the type \
         system (fix: decode through a checked parser (Trace_io / \
         Gc_obs.Json style))";
      ];
    golden "bare-sleep" ~as_path:"lib/sleep.ml" "sleep.ml"
      [
        "lib/sleep.ml:2:16: error bare-sleep: Unix.sleepf is cut short by \
         signals (fix: call Gc_exec.Pool.nap, which retries the remaining \
         time on EINTR)";
        "lib/sleep.ml:3:22: error bare-sleep: Unix.sleep is cut short by \
         signals (fix: call Gc_exec.Pool.nap, which retries the remaining \
         time on EINTR)";
      ];
    (* Scoped under bin/ so the overlapping swallowed-cancellation rule
       (lib/-only) stays quiet and the retry findings stand alone. *)
    golden "unbounded-retry" ~as_path:"bin/retry.ml" "retry.ml"
      [
        "bin/retry.ml:6:39: error unbounded-retry: catch-all handler \
         re-enters the recursive binding: an unbounded retry with no \
         backoff (fix: drive the attempt through Gc_exec.Retry.run \
         (capped attempts, backoff, jitter), or bound the handler with a \
         `when` guard)";
        "bin/retry.ml:9:42: error unbounded-retry: catch-all handler \
         re-enters the recursive binding: an unbounded retry with no \
         backoff (fix: drive the attempt through Gc_exec.Retry.run \
         (capped attempts, backoff, jitter), or bound the handler with a \
         `when` guard)";
      ];
    golden "partial-stdlib" ~as_path:"lib/partial.ml" "partial.ml"
      [
        "lib/partial.ml:2:16: warn partial-stdlib: partial List.hd raises \
         a bare Failure (fix: match on the shape, or use the _opt variant \
         with an explicit error)";
        "lib/partial.ml:3:17: warn partial-stdlib: partial List.nth raises \
         a bare Failure (fix: match on the shape, or use the _opt variant \
         with an explicit error)";
        "lib/partial.ml:4:15: warn partial-stdlib: partial Option.get \
         raises a bare Invalid_argument (fix: match on the shape, or use \
         the _opt variant with an explicit error)";
      ];
    golden "wall-clock-timing" ~as_path:"lib/wallclock.ml" "wallclock.ml"
      [
        "lib/wallclock.ml:2:10: warn wall-clock-timing: Unix.gettimeofday \
         is a wall clock; durations need the monotonic Gc_prof.Clock (fix: \
         read Gc_prof.Clock.now_s (monotonic) for durations and deadlines)";
        "lib/wallclock.ml:3:11: warn wall-clock-timing: Sys.time measures \
         CPU time; durations need the monotonic Gc_prof.Clock (fix: read \
         Gc_prof.Clock.now_s (monotonic) for durations and deadlines)";
        "lib/wallclock.ml:4:15: warn wall-clock-timing: Unix.gettimeofday \
         is a wall clock; durations need the monotonic Gc_prof.Clock (fix: \
         read Gc_prof.Clock.now_s (monotonic) for durations and deadlines)";
      ];
    golden "print-in-lib" ~as_path:"lib/printlib.ml" "printlib.ml"
      [
        "lib/printlib.ml:2:19: error print-in-lib: print_endline writes to \
         stdout from library code (fix: return the data, or emit a Gc_obs \
         event/metric instead)";
        "lib/printlib.ml:3:16: error print-in-lib: Printf.printf writes to \
         stdout from library code (fix: return the data, or emit a Gc_obs \
         event/metric instead)";
      ];
    golden "fixed-deadline" ~as_path:"lib/serve/deadline.ml" "deadline.ml"
      [
        "lib/serve/deadline.ml:7:44: warn fixed-deadline: hardcoded time \
         bound in record field deadline: deadlines must derive from \
         Server.config or the propagated budget (fix: derive the value \
         from Server.config (or a caller-supplied budget); literals \
         belong in default_config only)";
        "lib/serve/deadline.ml:8:44: warn fixed-deadline: hardcoded time \
         bound in record field budget_ms: deadlines must derive from \
         Server.config or the propagated budget (fix: derive the value \
         from Server.config (or a caller-supplied budget); literals \
         belong in default_config only)";
        "lib/serve/deadline.ml:9:43: warn fixed-deadline: hardcoded time \
         bound in argument ~deadline: deadlines must derive from \
         Server.config or the propagated budget (fix: derive the value \
         from Server.config (or a caller-supplied budget); literals \
         belong in default_config only)";
        "lib/serve/deadline.ml:10:51: warn fixed-deadline: hardcoded time \
         bound in argument ~timeout: deadlines must derive from \
         Server.config or the propagated budget (fix: derive the value \
         from Server.config (or a caller-supplied budget); literals \
         belong in default_config only)";
      ];
    golden "hardcoded-endpoint" ~as_path:"lib/endpoint.ml" "endpoint.ml"
      [
        "lib/endpoint.ml:6:37: warn hardcoded-endpoint: string literal \
         \"/tmp/gcserved.sock\" pins a concrete endpoint: addresses are \
         deployment configuration (fix: take the address from config or \
         a parameter; derive fleet sockets via Fleet.replica_socket)";
        "lib/endpoint.ml:7:67: warn hardcoded-endpoint: string literal \
         \"127.0.0.1:8080\" pins a concrete endpoint: addresses are \
         deployment configuration (fix: take the address from config or \
         a parameter; derive fleet sockets via Fleet.replica_socket)";
        "lib/endpoint.ml:8:30: warn hardcoded-endpoint: string literal \
         \"localhost:9000\" pins a concrete endpoint: addresses are \
         deployment configuration (fix: take the address from config or \
         a parameter; derive fleet sockets via Fleet.replica_socket)";
      ];
    golden "parse-error" ~as_path:"lib/broken.ml" "broken.ml"
      [ "lib/broken.ml:4:1: error parse-error: file does not parse" ];
    golden "bad-allow" ~as_path:"lib/bad_allow.ml" "bad_allow.ml"
      [
        "lib/bad_allow.ml:4:16: error bare-sleep: Unix.sleepf is cut short \
         by signals (fix: call Gc_exec.Pool.nap, which retries the \
         remaining time on EINTR)";
        "lib/bad_allow.ml:4:35: error bad-allow: lint.allow names unknown \
         rule \"no-such-rule\"";
        "lib/bad_allow.ml:5:19: error print-in-lib: print_endline writes \
         to stdout from library code (fix: return the data, or emit a \
         Gc_obs event/metric instead)";
        "lib/bad_allow.ml:5:39: error bad-allow: lint.allow expects a \
         quoted rule id";
      ];
  ]

(* --------------------------------------------- suppression and scoping *)

let test_suppressed () =
  Alcotest.(check (list string))
    "expression/binding [@lint.allow] silences every site" []
    (check ~as_path:"lib/suppressed.ml" "suppressed.ml")

let test_scope_bin_rule_in_lib () =
  (* exit-contract is a bin/-only rule: the same fixture that produces
     three findings under bin/ is clean under lib/. *)
  Alcotest.(check (list string))
    "exit-contract does not fire outside bin/" []
    (check ~as_path:"lib/exitc.ml" "exitc.ml")

let test_scope_lib_rule_in_bin () =
  Alcotest.(check (list string))
    "print-in-lib does not fire outside lib/" []
    (check ~as_path:"bin/printlib.ml" "printlib.ml")

let test_scope_wallclock_outside_lib () =
  (* wall-clock-timing is lib/-only: bench and bin keep Unix.gettimeofday
     for calendar stamps (section wall times, manifests). *)
  Alcotest.(check (list string))
    "wall-clock-timing does not fire outside lib/" []
    (check ~as_path:"bench/wallclock.ml" "wallclock.ml")

let test_scope_retry_exempt () =
  (* The fixture under lib/ also trips swallowed-cancellation (by
     design — the two rules overlap on catch-alls), so assert only on
     the retry findings.  No lib/ file is exempt: linted as the retry
     engine or the pool, the fixture's two bare loops still fire. *)
  let retry_findings as_path =
    List.filter
      (fun s -> Test_util.contains s "unbounded-retry")
      (check ~as_path "retry.ml")
  in
  Alcotest.(check int)
    "lib/exec/retry.ml is linted" 2
    (List.length (retry_findings "lib/exec/retry.ml"));
  Alcotest.(check int)
    "lib/exec/pool.ml is linted" 2
    (List.length (retry_findings "lib/exec/pool.ml"));
  Alcotest.(check (list string))
    "unbounded-retry does not fire outside lib/ and bin/" []
    (retry_findings "test/retry.ml")

let test_scope_endpoint_outside_lib () =
  (* hardcoded-endpoint is lib/-only: bin/ and test/ name concrete
     sockets on purpose (CLI defaults, fixtures, drills). *)
  Alcotest.(check (list string))
    "hardcoded-endpoint does not fire outside lib/" []
    (check ~as_path:"bin/endpoint.ml" "endpoint.ml");
  Alcotest.(check (list string))
    "nor under test/" []
    (check ~as_path:"test/endpoint.ml" "endpoint.ml")

let test_scope_exec_exempt () =
  Alcotest.(check (list string))
    "lib/exec/ owns spawning" []
    (check ~as_path:"lib/exec/spawn.ml" "spawn.ml")

let test_scope_test_dir () =
  (* Tests spawn raw threads/domains on purpose, to race the supervised
     runtime from outside it, and write scratch files without the
     crash-safe Export ceremony.  bench/ gets no such pass. *)
  Alcotest.(check (list string))
    "spawn-outside-pool does not fire under test/" []
    (check ~as_path:"test/spawn.ml" "spawn.ml");
  Alcotest.(check (list string))
    "raw-artifact-write does not fire under test/" []
    (check ~as_path:"test/artifact.ml" "artifact.ml");
  Alcotest.(check int)
    "spawn-outside-pool still fires under bench/" 2
    (List.length (check ~as_path:"bench/spawn.ml" "spawn.ml"));
  Alcotest.(check int)
    "raw-artifact-write still fires under bench/" 2
    (List.length (check ~as_path:"bench/artifact.ml" "artifact.ml"))

let test_scope_partial_test_bench () =
  Alcotest.(check (list string))
    "partial-stdlib does not fire under test/" []
    (check ~as_path:"test/partial.ml" "partial.ml");
  Alcotest.(check (list string))
    "nor under bench/" []
    (check ~as_path:"bench/partial.ml" "partial.ml");
  Alcotest.(check int)
    "but does under examples/" 3
    (List.length (check ~as_path:"examples/partial.ml" "partial.ml"))

let test_discover_skips_fixtures () =
  let root = Filename.temp_dir "gc_lint" "tree" in
  let write rel =
    let path = Filename.concat root rel in
    let rec mkdirs dir =
      if not (Sys.file_exists dir) then begin
        mkdirs (Filename.dirname dir);
        Sys.mkdir dir 0o755
      end
    in
    mkdirs (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc ->
        output_string oc "let t : int = Obj.magic 0\n")
  in
  List.iter write
    [
      "lib/a.ml"; "test/t.ml"; "test/lint_fixtures/deser.ml";
      "test/lint_fixtures/sub/deep.ml"; "examples/e.ml"; "doc/d.ml";
    ];
  let discovered = Engine.discover ~root () in
  let explicit = Engine.check_tree ~root [ "test/lint_fixtures/deser.ml" ] in
  ignore (Sys.command ("rm -rf " ^ Filename.quote root));
  Alcotest.(check (list string))
    "the fixture corpus is never discovered; examples/ is"
    [ "examples/e.ml"; "lib/a.ml"; "test/t.ml" ]
    discovered;
  Alcotest.(check int)
    "named explicitly, a fixture is still linted" 1 (List.length explicit)

(* ------------------------------------------------------- the gclint CLI *)

let test_cli_rules_json () =
  let code, out = exec (gclint ^ " rules --json") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string)
    "rules --json is a stable, diffable surface"
    (String.trim (read_file "golden/lint_rules.json"))
    (String.trim out)

let test_cli_rules_text () =
  let code, out = exec (gclint ^ " rules") in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter
    (fun id ->
      if not (Test_util.contains out id) then
        Alcotest.failf "rules output is missing %s" id)
    Rules.ids

let test_cli_explain () =
  let code, out = exec (gclint ^ " explain swallowed-cancellation") in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "explains the fix" true (Test_util.contains out "Fix:");
  let code, _ = exec (gclint ^ " explain no-such-rule") in
  Alcotest.(check int) "unknown rule is a usage error" 2 code

let test_cli_check_findings () =
  (* Unprefixed fixture paths: path-scoped rules stay quiet, but the
     everywhere-rules still fire, so the exit code must be 1. *)
  let code, _ = exec (gclint ^ " check --root lint_fixtures deser.ml") in
  Alcotest.(check int) "findings exit 1" 1 code;
  (* [exec] merges the streams; the summary line on stderr is not JSON,
     so drop it inside a subshell before the merge. *)
  let code, out =
    exec ("(" ^ gclint ^ " check --json --root lint_fixtures deser.ml 2>/dev/null)")
  in
  Alcotest.(check int) "still 1 with --json" 1 code;
  match Gc_obs.Json.parse (String.trim out) with
  | Error e -> Alcotest.fail (Gc_obs.Json.string_of_parse_error e)
  | Ok json ->
      let count =
        match Gc_obs.Json.member "count" json with
        | Some n -> Gc_obs.Json.get_int n
        | None -> Alcotest.fail "no count field"
      in
      Alcotest.(check int) "count matches deser.ml's two findings" 2 count

let test_cli_check_usage () =
  let code, _ = exec (gclint ^ " check --root lint_fixtures missing.ml") in
  Alcotest.(check int) "nonexistent path is a usage error" 2 code;
  let code, _ = exec (gclint ^ " check --root no-such-dir") in
  Alcotest.(check int) "nonexistent root is a usage error, not clean" 2 code

(* ------------------------------------------------------- the self-check *)

(* The repo's own tree must stay lint-clean: new debt either gets fixed
   or carries an explicit [@lint.allow] with a justification.  Tests run from _build/default/test, so the real
   source tree is three levels up — found by locating the _build
   component rather than hard-coding the depth. *)
let source_root () =
  let cwd = Sys.getcwd () in
  let rec go dir =
    if Filename.basename dir = "_build" then Some (Filename.dirname dir)
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent
  in
  go cwd

let test_self_check () =
  match source_root () with
  | None -> () (* not running under _build; nothing to check *)
  | Some root ->
      if not (Sys.file_exists (Filename.concat root "dune-project")) then ()
      else
        Alcotest.(check (list string))
          "the repo lints clean (fix the finding or suppress it with a \
           justified [@lint.allow])"
          []
          (List.map Finding.to_string (Engine.check_tree ~root []))

let () =
  Alcotest.run "lint"
    [
      ("fixtures", fixture_tests);
      ("suppression", [ Alcotest.test_case "attributes" `Quick test_suppressed ]);
      ( "scoping",
        [
          Alcotest.test_case "bin-rule-in-lib" `Quick test_scope_bin_rule_in_lib;
          Alcotest.test_case "lib-rule-in-bin" `Quick test_scope_lib_rule_in_bin;
          Alcotest.test_case "wallclock-outside-lib" `Quick
            test_scope_wallclock_outside_lib;
          Alcotest.test_case "endpoint-outside-lib" `Quick
            test_scope_endpoint_outside_lib;
          Alcotest.test_case "exec-exempt" `Quick test_scope_exec_exempt;
          Alcotest.test_case "retry-exempt" `Quick test_scope_retry_exempt;
          Alcotest.test_case "spawn-write-in-test" `Quick test_scope_test_dir;
          Alcotest.test_case "partial-in-test-bench" `Quick
            test_scope_partial_test_bench;
          Alcotest.test_case "discover-skips-fixtures" `Quick
            test_discover_skips_fixtures;
        ] );
      ( "cli",
        [
          Alcotest.test_case "rules-json" `Quick test_cli_rules_json;
          Alcotest.test_case "rules-text" `Quick test_cli_rules_text;
          Alcotest.test_case "explain" `Quick test_cli_explain;
          Alcotest.test_case "check-findings" `Quick test_cli_check_findings;
          Alcotest.test_case "check-usage" `Quick test_cli_check_usage;
        ] );
      ("self-check", [ Alcotest.test_case "repo-is-clean" `Quick test_self_check ]);
    ]
