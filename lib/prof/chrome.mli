(** Chrome trace-event JSON export.

    The emitted document loads directly in Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or chrome://tracing:
    one complete ("ph":"X") event per span, microsecond timestamps,
    domain/thread ids as tracks, and each span's exact minor words
    under ["args"] (major-heap words are not recorded). *)

val event : Tracer.span -> Gc_obs.Json.t
val to_json : Tracer.span list -> Gc_obs.Json.t
