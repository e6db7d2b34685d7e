type result = {
  policy : string;
  metrics : Metrics.t;
  registry : Gc_obs.Registry.t option;
  events : (string * int) list;
}

type failure = { policy : string; kind : string; message : string }

(* Every run polls the supervised runtime's cancel token from the
   simulator's progress hook.  Outside a supervised pool the poll is a
   domain-local [None] read — effectively free — so there is no separate
   "cancellable" entry point to keep in sync. *)
let progress _index = Gc_exec.Cancel.poll ()

(* Span instrumentation of the access loop, riding the existing
   [?progress] hook rather than touching the simulator's hot path: each
   progress stride (4096 accesses) becomes a "sim.chunk" span, so a
   Perfetto track shows where inside a long trace the time goes.  With
   tracing disabled the addition to each progress tick is one atomic
   load — the access loop itself allocates not a word more (asserted by
   test_prof).  [finish] closes the open chunk at end of run. *)
let span_hooks ?(base = fun _ -> ()) () =
  let tok = ref (-1) in
  let progress index =
    base index;
    if Gc_prof.Tracer.enabled () then begin
      if !tok >= 0 then Gc_prof.Tracer.leave !tok;
      tok :=
        Gc_prof.Tracer.enter
          ~args:[ ("index", string_of_int index) ]
          "sim.chunk"
    end
  in
  let finish () =
    if !tok >= 0 then begin
      Gc_prof.Tracer.leave !tok;
      tok := -1
    end
  in
  (progress, finish)

let run_args name k =
  if Gc_prof.Tracer.enabled () then
    [ ("policy", name); ("k", string_of_int k) ]
  else []

let run_policy ?(check = true) ?(histograms = false) ?sink ?wrap ~k ~seed name
    trace =
  let blocks = trace.Gc_trace.Trace.blocks in
  let reg = if histograms then Some (Gc_obs.Registry.create ()) else None in
  (* Unobserved (neither histograms nor a sink): no probe and no
     repartition callback, so no event is ever allocated. *)
  let probe, repartition, events =
    if not (histograms || Option.is_some sink) then (None, None, fun () -> [])
    else begin
      let counts = Gc_obs.Sink.Count.create () in
      let sinks =
        List.filter_map Fun.id
          [
            Some (Gc_obs.Sink.Count.sink counts);
            Option.map
              (fun r -> Gc_obs.Probe.sink (Gc_obs.Probe.create r))
              reg;
            sink;
          ]
      in
      let emit = Gc_obs.Sink.tee sinks in
      (* The adaptive policies report repartitions from inside their
         access function; stamp those callbacks with the index of the
         in-flight access, tracked from the event stream itself. *)
      let current_index = ref (-1) in
      let probe ev =
        (match ev with
        | Gc_obs.Event.Access { index; _ } -> current_index := index
        | _ -> ());
        emit ev
      in
      let repartition ~item_budget ~block_budget =
        probe
          (Gc_obs.Event.Repartition
             { index = !current_index; item_budget; block_budget })
      in
      ( Some probe,
        Some repartition,
        fun () -> Gc_obs.Sink.Count.by_kind counts )
    end
  in
  let p = Registry.make ?repartition name ~k ~blocks ~seed in
  let p = match wrap with Some w -> w p | None -> p in
  let progress, finish = span_hooks ~base:progress () in
  let metrics =
    Gc_prof.Span.with_ ~args:(run_args name k) "run_policy" (fun () ->
        Fun.protect ~finally:finish (fun () ->
            Simulator.run ~check ?probe ~progress p trace))
  in
  { policy = name; metrics; registry = reg; events = events () }

let run_policy_result ?check ?histograms ?sink ?wrap ~k ~seed name trace =
  match run_policy ?check ?histograms ?sink ?wrap ~k ~seed name trace with
  | r -> Ok r
  | exception Simulator.Model_violation message ->
      Error { policy = name; kind = "model-violation"; message }
  | exception (Gc_exec.Cancel.Cancelled _ as cancelled) ->
      (* Cancellation is the supervised runtime's signal, not a policy
         failure: let the pool classify it (timeout vs. interrupt). *)
      raise cancelled
  | exception (Gc_exec.Pool.Transient _ as transient) ->
      (* Likewise retryable faults: swallowing one here would defeat the
         pool's bounded-retry machinery. *)
      raise transient
  | exception exn ->
      Error { policy = name; kind = "exception"; message = Printexc.to_string exn }

let trace_info ~path trace =
  {
    Gc_obs.Manifest.path;
    length = Gc_trace.Trace.length trace;
    block_size = Gc_trace.Block_map.block_size trace.Gc_trace.Trace.blocks;
    digest = Gc_trace.Trace.digest trace;
  }

let manifest_run (r : result) =
  {
    Gc_obs.Manifest.policy = r.policy;
    metrics =
      (match Metrics.to_json r.metrics with
      | Gc_obs.Json.Obj fields -> fields
      | other -> [ ("metrics", other) ]);
    histograms = Option.map Gc_obs.Registry.to_json r.registry;
    events = r.events;
    error = None;
  }

let failed_run (f : failure) =
  {
    Gc_obs.Manifest.policy = f.policy;
    metrics = [];
    histograms = None;
    events = [];
    error = Some (f.kind, f.message);
  }

let manifest_of_outcomes ~tool ~command ?seed ?k ?trace ?wall_time_s ?extra
    outcomes =
  Gc_obs.Manifest.make ~tool ~command ?seed ?k ?trace ?wall_time_s ?extra
    (List.map
       (function Ok r -> manifest_run r | Error f -> failed_run f)
       outcomes)
