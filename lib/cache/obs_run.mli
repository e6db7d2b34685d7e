(** Observable simulation runs: the engine behind [gcsim run]'s machine
    readable artifacts.

    Wires together a {!Registry}-built policy, the {!Simulator} probe, the
    {!Gc_obs.Probe} histogram consumer, an optional caller sink (typically
    a JSONL writer), and per-kind event counting — then snapshots
    everything into a {!Gc_obs.Manifest}.  Living in the library rather
    than the binary keeps the whole artifact path testable in-process. *)

type result = {
  policy : string;  (** The registry spec that was run. *)
  metrics : Metrics.t;
  registry : Gc_obs.Registry.t option;
      (** Histogram registry; [Some] iff [histograms] was requested. *)
  events : (string * int) list;
      (** Per-kind event counts; [[]] when the run was unobserved. *)
}

type failure = {
  policy : string;
  kind : string;  (** ["model-violation"] or ["exception"]. *)
  message : string;
}

val span_hooks : ?base:(int -> unit) -> unit -> (int -> unit) * (unit -> unit)
(** [(progress, finish)]: a simulator [?progress] hook that opens one
    "sim.chunk" tracing span per progress stride (composing with [base],
    which runs first), and the closer for the final open chunk.  This is
    how {!run_policy_result} wires the access loop into {!Gc_prof} without
    touching the simulator: when tracing is disabled the hook adds a
    single atomic load per stride and the loop allocates nothing extra
    (asserted by test_prof's zero-allocation test). *)

val run_policy_result :
  ?check:bool ->
  ?histograms:bool ->
  ?sink:Gc_obs.Sink.t ->
  ?wrap:(Policy.t -> Policy.t) ->
  k:int ->
  seed:int ->
  string ->
  Gc_trace.Trace.t ->
  (result, failure) Stdlib.result
(** Simulate one registry policy over the trace.  When neither
    [histograms] (default [false]) nor [sink] is given, no probe is
    attached at all — the run is exactly as fast as an unobserved
    {!Simulator.run}.  Otherwise every event is counted, fed to the
    {!Gc_obs.Probe} (if [histograms]), and forwarded to [sink]; adaptive
    repartitions are injected into the same stream.  [wrap] transforms the
    constructed policy before simulation (fault injectors hook in here).

    A policy that raises — a {!Simulator.Model_violation} from the shadow
    audit, or any other exception from the policy itself — is captured as
    a structured {!failure} instead of propagating, so one broken policy
    never aborts a multi-policy sweep.

    Two exceptions stay exceptional because they belong to the supervised
    runtime, not the policy: {!Gc_exec.Cancel.Cancelled} (deadline or
    interrupt — the pool turns it into a [Timed_out]/[Cancelled] outcome)
    and {!Gc_exec.Pool.Transient} (retryable; capturing it would defeat
    bounded retry). *)

val manifest_run : result -> Gc_obs.Manifest.run
(** One successful run's manifest slot (metrics fields, histogram
    snapshot, event counts, no error). *)

val failed_run : failure -> Gc_obs.Manifest.run
(** One failed run's manifest slot: empty metrics, [error] set to the
    failure's kind and message. *)

val trace_info : path:string -> Gc_trace.Trace.t -> Gc_obs.Manifest.trace_info
(** Length, block size, and content digest for the manifest. *)

val manifest_of_outcomes :
  tool:string ->
  command:string ->
  ?seed:int ->
  ?k:int ->
  ?trace:Gc_obs.Manifest.trace_info ->
  ?wall_time_s:float ->
  ?extra:(string * Gc_obs.Json.t) list ->
  (result, failure) Stdlib.result list ->
  Gc_obs.Manifest.t
(** Package {!run_policy_result} outcomes: each successful run carries
    its {!Metrics.fields} (plus derived rates), its histogram registry
    snapshot, and its event counts; a failed policy keeps its slot in the
    manifest's [runs], with empty metrics and the [error] field set, so a
    sweep's survivors are never discarded.  Callers holding only
    successes pass [List.map Result.ok]. *)
