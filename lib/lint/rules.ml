type t = {
  id : string;
  severity : Finding.severity;
  synopsis : string;
  rationale : string;
  example : string;
  fix : string;
  scope_doc : string;
}

let all =
  [
    {
      id = "spawn-outside-pool";
      severity = Finding.Error;
      synopsis = "raw Domain.spawn/Thread.create outside the supervised runtime";
      rationale =
        "Every concurrent task must run under Gc_exec.Pool: the pool owns \
         deadlines, Transient retry, cooperative cancellation, and graceful \
         drain.  A raw domain or thread is invisible to the supervisor — it \
         cannot be cancelled, retried, or drained, and a wedged one hangs \
         the process.";
      example = "let h = Domain.spawn worker";
      fix = "run the task through Gc_exec.Pool.run (lib/exec owns spawning)";
      scope_doc = "everywhere except lib/exec/ and test/";
    };
    {
      id = "swallowed-cancellation";
      severity = Finding.Error;
      synopsis = "catch-all exception handler that cannot re-raise cancellation";
      rationale =
        "Cooperative cancellation travels as the Cancel.Cancelled exception \
         (and retryable faults as Pool.Transient).  A `with _ ->` or \
         `with e ->` handler that does not re-raise swallows the \
         cancellation signal, so a deadline or drain request silently never \
         lands and the supervisor must abandon the task instead.";
      example = "try work () with _ -> default";
      fix =
        "narrow the pattern, or re-raise: `| (Cancel.Cancelled _ | \
         Pool.Transient _) as e -> raise e` before the catch-all";
      scope_doc = "lib/ only";
    };
    {
      id = "exit-contract";
      severity = Finding.Error;
      synopsis = "failwith/exit/assert false in bin/ outside cli_common.ml";
      rationale =
        "The gc* binaries share one exit-code contract (0 ok / 1 runtime / \
         2 usage / 3 model violation / 130 interrupted), enforced by \
         Cli_common.eval.  A stray failwith, exit, or assert false picks \
         its own process status and breaks scripts that drive the tools.  \
         `exit (Cli_common.eval ...)` at the entry point is the sanctioned \
         form and is not flagged.";
      example = "let () = failwith \"bad flag\"";
      fix = "raise through Cli_common.fail_usage/fail_runtime instead";
      scope_doc = "bin/ only, except bin/cli_common.ml";
    };
    {
      id = "nondeterministic-rng";
      severity = Finding.Error;
      synopsis = "Stdlib.Random instead of the deterministic Gc_trace.Rng";
      rationale =
        "Runs must be replayable: traces, adversaries, and replicates all \
         derive from seeded Gc_trace.Rng streams (splitmix64, splittable \
         per domain).  Stdlib.Random is a single global mutable state — \
         domain-dependent, seed-hostile, and unreproducible across runs.";
      example = "let coin () = Random.bool ()";
      fix = "thread a seeded Gc_trace.Rng.t through the call site";
      scope_doc = "everywhere";
    };
    {
      id = "raw-artifact-write";
      severity = Finding.Error;
      synopsis = "direct open_out/Out_channel file creation outside Export";
      rationale =
        "Artifacts must never be observable half-written: \
         Gc_obs.Export.write_string_atomic goes through a unique temp \
         file, fsync, and rename, so a crash or full disk cannot leave a \
         truncated file under a final name.  A direct open_out skips all \
         of that.";
      example = "let oc = open_out \"manifest.json\"";
      fix =
        "write through Gc_obs.Export (write_string_atomic/write_json_atomic)";
      scope_doc = "everywhere except lib/obs/export.ml and test/";
    };
    {
      id = "unsafe-deser";
      severity = Finding.Error;
      synopsis = "Marshal.from_*/Obj.magic on data";
      rationale =
        "Marshal.from_* trusts its input's shape and segfaults on hostile \
         or stale bytes; Obj.magic defeats the type system outright.  \
         Every decoder in the tree (Trace_io, Gc_obs.Json, Frame) is a \
         hardened, positioned-diagnostic parser instead — new formats \
         must follow suit.";
      example = "let t : state = Marshal.from_channel ic";
      fix = "decode through a checked parser (Trace_io / Gc_obs.Json style)";
      scope_doc = "everywhere";
    };
    {
      id = "bare-sleep";
      severity = Finding.Error;
      synopsis = "Unix.sleep/sleepf instead of the EINTR-safe Pool.nap";
      rationale =
        "Unix.sleepf returns early when a signal lands — and the signals \
         this tree cares about (SIGINT/SIGTERM during a supervised drain) \
         arrive in storms.  Pool.nap retries the remaining duration, so \
         monitor ticks and backoff sleeps keep their intended length \
         instead of collapsing into busy-spins.";
      example = "Unix.sleepf 0.05";
      fix = "call Gc_exec.Pool.nap, which retries the remaining time on EINTR";
      scope_doc = "everywhere except lib/exec/pool.ml";
    };
    {
      id = "unbounded-retry";
      severity = Finding.Error;
      synopsis = "recursive retry loop with no attempt bound or backoff";
      rationale =
        "A catch-all handler that re-enters its own recursive binding \
         retries forever with no attempt cap, no backoff, and no jitter — \
         against a down dependency it busy-loops, and a fleet of them \
         synchronizes into a thundering herd.  Gc_exec.Retry is the one \
         sanctioned retry shape: capped exponential backoff, deterministic \
         jitter, and an optional wall-clock budget.";
      example = "let rec dial () = try connect () with _ -> dial ()";
      fix =
        "drive the attempt through Gc_exec.Retry.run (capped attempts, \
         backoff, jitter), or bound the handler with a `when` guard";
      scope_doc = "lib/ and bin/";
    };
    {
      id = "partial-stdlib";
      severity = Finding.Warn;
      synopsis = "partial List.hd/List.nth/Option.get";
      rationale =
        "These raise bare Failure/Invalid_argument with no position and no \
         context, which the exit-code contract then misclassifies as a \
         generic runtime failure.  Total variants (List.nth_opt, pattern \
         matches) force the empty case to say what went wrong.";
      example = "let first = List.hd xs";
      fix = "match on the shape, or use the _opt variant with an explicit error";
      scope_doc = "everywhere except test/ and bench/";
    };
    {
      id = "wall-clock-timing";
      severity = Finding.Warn;
      synopsis = "Unix.gettimeofday/Sys.time for durations in library code";
      rationale =
        "Wall clocks jump: NTP slews, leap smears, and suspend/resume all \
         move Unix.gettimeofday, so a duration computed from two readings \
         can be negative or wildly long — deadlines misfire and latency \
         metrics lie.  Sys.time measures CPU time, not elapsed time.  \
         Durations, deadlines, and span timestamps in lib/ read the \
         monotonic clock (Gc_prof.Clock.now_s / now_ns) instead; \
         Unix.gettimeofday remains fine for calendar timestamps in \
         artifacts.";
      example = "let t0 = Unix.gettimeofday () in ... ; elapsed t0";
      fix = "read Gc_prof.Clock.now_s (monotonic) for durations and deadlines";
      scope_doc = "lib/ only";
    };
    {
      id = "print-in-lib";
      severity = Finding.Error;
      synopsis = "printing to stdout from library code";
      rationale =
        "Libraries are embedded in the simulator service and in tests \
         whose stdout is golden-checked; a stray print corrupts machine \
         output (CSV, JSON, manifests).  Only the bin/ layer owns stdout; \
         libraries return data or go through the Gc_obs event sinks.";
      example = "print_endline \"done\"";
      fix = "return the data, or emit a Gc_obs event/metric instead";
      scope_doc = "lib/ only";
    };
    {
      id = "hardcoded-endpoint";
      severity = Finding.Warn;
      synopsis = "hardcoded socket path or host:port literal in library code";
      rationale =
        "Where a service listens is deployment policy, not library code: \
         replica sets derive their sockets from a base path \
         (Fleet.replica_socket), clients take endpoint lists from \
         configuration, and the drills place everything under a fresh \
         temp directory.  A string literal naming a .sock path or a \
         host:port pins the library to one topology — it cannot be \
         fleet-deployed, proxied, or drilled without editing source.";
      example = "let addr = Client.Unix_path \"/tmp/gcserved.sock\"";
      fix =
        "take the address from config or a parameter; derive fleet \
         sockets via Fleet.replica_socket";
      scope_doc = "lib/ only";
    };
    {
      id = "fixed-deadline";
      severity = Finding.Warn;
      synopsis = "hardcoded deadline/timeout/budget literal in serving code";
      rationale =
        "Deadlines in the serving layer compose: the effective per-job \
         deadline is min(server deadline, client budget minus queue \
         sojourn), and every constant in that chain must trace back to \
         Server.config so operators can tune it and drills can shrink it.  \
         A numeric literal wired straight into a deadline, timeout, or \
         budget_ms field or argument is invisible to configuration — it \
         silently wins (or loses) against the propagated budget.  The one \
         sanctioned home for such literals is [default_config], where they \
         are the documented defaults.";
      example = "Pool.run pool { cfg with deadline = 5.0 } job";
      fix =
        "derive the value from Server.config (or a caller-supplied \
         budget); literals belong in default_config only";
      scope_doc = "lib/serve/ only";
    };
  ]

let ids = List.map (fun r -> r.id) all
let find id = List.find_opt (fun r -> r.id = id) all
let hint id = match find id with Some r -> r.fix | None -> ""
let severity id =
  match find id with Some r -> r.severity | None -> Finding.Error

let under dir file =
  String.length file >= String.length dir
  && String.sub file 0 (String.length dir) = dir

(* Tests spawn raw threads/domains on purpose (to race the supervised
   runtime from outside it), write scratch files without crash-safety
   ceremony, and take partial accessors of literal lists they just built;
   bench/ does the last too. *)
let applies ~id ~file =
  match id with
  | "spawn-outside-pool" -> not (under "lib/exec/" file || under "test/" file)
  | "swallowed-cancellation" -> under "lib/" file
  | "exit-contract" -> under "bin/" file && file <> "bin/cli_common.ml"
  | "raw-artifact-write" ->
      file <> "lib/obs/export.ml" && not (under "test/" file)
  | "bare-sleep" -> file <> "lib/exec/pool.ml"
  | "unbounded-retry" -> under "lib/" file || under "bin/" file
  | "print-in-lib" -> under "lib/" file
  | "wall-clock-timing" -> under "lib/" file
  | "fixed-deadline" -> under "lib/serve/" file
  | "hardcoded-endpoint" -> under "lib/" file
  | "partial-stdlib" -> not (under "test/" file || under "bench/" file)
  | "nondeterministic-rng" | "unsafe-deser" -> true
  | _ -> true

let to_json r =
  Gc_obs.Json.Obj
    [
      ("id", Gc_obs.Json.String r.id);
      ("severity", Gc_obs.Json.String (Finding.severity_to_string r.severity));
      ("synopsis", Gc_obs.Json.String r.synopsis);
      ("fix", Gc_obs.Json.String r.fix);
      ("scope", Gc_obs.Json.String r.scope_doc);
    ]
