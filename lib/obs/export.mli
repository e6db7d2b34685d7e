(** Artifact writers and the Prometheus exposition of a metrics snapshot. *)

val prometheus_of_json : Json.t -> (string, string) result
(** Prometheus text exposition (format 0.0.4) of a {!Registry.to_json}
    snapshot — the shape served by [gcserved]'s stats op: a [# TYPE]
    header per metric name with all of the name's labeled samples
    grouped under it, metric and label names sanitised to the Prometheus
    charset, label values escaped.  Histograms render as cumulative
    [_bucket] samples ([le] = the log bucket's inclusive upper edge, plus
    [+Inf]) with [_sum] and [_count].  [Error] describes the first
    malformed row. *)

exception Crashed_before_rename

val crash_before_rename : bool ref
(** Chaos-drill fault hook ([gcchaos]; off — [false] — everywhere else).
    Armed, the next {!write_string_atomic} finishes its temp file and
    then raises {!Crashed_before_rename} in place of the rename — the
    window a real crash would hit — leaving the temp file behind and the
    final name untouched.  One-shot: disarms as it fires. *)

val write_string_atomic : string -> string -> unit
(** Crash-safe, durable replacement write: the content goes to a
    per-process-unique temp name ([path ^ ".tmp.<pid>.<seq>"], so two
    concurrent writers of the same artifact cannot clobber each other's
    temp file), is flushed and [fsync]ed, and only then renamed over
    [path] — a crash, full disk, or power loss mid-write can never leave
    a truncated artifact under the final name.  The containing directory
    is fsynced after the rename where the platform allows it.  Failures
    raise [Sys_error] with the temp file removed. *)

val write_string : string -> string -> unit
(** Alias of {!write_string_atomic}.  The plain non-atomic variant was
    removed so that every artifact writer shares the same crash-safety
    guarantee; streaming writers (JSONL event sinks, checkpoint journals)
    manage their own channels instead. *)

val write_json_atomic : string -> Json.t -> unit
(** Pretty-printed JSON (trailing newline included) through
    {!write_string_atomic}; every run-artifact writer should use this. *)

val write_json : string -> Json.t -> unit
(** Alias of {!write_json_atomic}. *)
