(** Cross-validation of static verdicts against the dynamic simulator.

    The harness replays every execution path of a program (each branch
    resolution, loops unrolled) through the real [lib/cache] machinery —
    {!Gc_cache.Set_assoc} over the policy's imperative implementation,
    audited by {!Gc_cache.Simulator}'s shadow checker — and tallies
    observed hits and misses per program point.  A {e contradiction} is a
    static [Always_hit] with an observed miss, or [Always_miss] with an
    observed hit: any single one means an engine is unsound, so
    {!check} is wired to a hard-failing exit in [gcanalyze check] and to
    the [@analysis] alias.

    [Unknown] verdicts are unfalsifiable and never contradicted; when path
    enumeration is truncated ({!Program.executions}) the audit is partial
    but still sound — it can only miss contradictions, not invent them. *)

type contradiction = {
  program : string;
  engine : string;
  config : Cache_model.config;
  point : int;
  item : int;
  verdict : Report.verdict;
  hits : int;  (** Observed dynamic hits at the point. *)
  misses : int;
}

type summary = {
  programs : int;
  runs : int;  (** Engine runs checked (program x config x engine). *)
  points_checked : int;
  always_claims : int;  (** [Always_*] verdicts among checked points. *)
  contradictions : contradiction list;
}

val dynamic_policy : Cache_model.config -> Gc_cache.Policy.t
(** The simulator-side twin of a config: {!Gc_cache.Set_assoc} around the
    matching way policy. *)

val observe : Cache_model.config -> Program.t -> (int * int) array
(** Per-point [(hits, misses)] accumulated over every (capped) execution
    path, each replayed through a fresh checked simulator. *)

val check_run :
  observed:(int * int) array -> Report.run -> contradiction list

val check :
  ?unsound:bool ->
  (string * Program.t) list ->
  Cache_model.config list ->
  summary
(** Run the exact engine on every program x config, the age engine on the
    LRU configs, and cross-validate all of it.  [~unsound:true] swaps the
    age engine for its deliberately broken variant — the harness must then
    report contradictions (this is the harness's own self-test). *)

val summary_to_json : summary -> Gc_obs.Json.t

val pp_summary : Format.formatter -> summary -> unit
