module Json = Gc_obs.Json

(* Chrome trace-event format ("X" complete events), the JSON dialect
   Perfetto and chrome://tracing load directly.  Timestamps and
   durations are microseconds; the monotonic epoch is arbitrary, which
   the viewers accept (they normalise to the earliest event).  Each
   event's args carry the span's exact minor words and nothing about the
   major heap, which a span does not record. *)

let event (s : Tracer.span) =
  let args =
    ("minor_words", Json.Float (float_of_int s.Tracer.minor_words))
    :: List.map (fun (k, v) -> (k, Json.String v)) s.Tracer.args
  in
  Json.Obj
    [
      ("name", Json.String s.Tracer.name);
      ("cat", Json.String "gc_caching");
      ("ph", Json.String "X");
      ("pid", Json.Int 1);
      ("tid", Json.Int s.Tracer.tid);
      ("ts", Json.Float (float_of_int s.Tracer.ts_ns /. 1000.));
      ("dur", Json.Float (float_of_int s.Tracer.dur_ns /. 1000.));
      ("args", Json.Obj args);
    ]

let to_json spans =
  Json.Obj
    [
      ("traceEvents", Json.Array (List.map event spans));
      ("displayTimeUnit", Json.String "ns");
    ]
