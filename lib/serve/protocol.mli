(** The simulation service's request/response vocabulary.

    One JSON document per frame.  Requests carry an optional [id] (JSON
    int or string, echoed verbatim in the reply so clients can pipeline),
    an [op], and op-specific fields.  Responses are
    [{"id":..,"status":"ok","result":..}] or
    [{"id":..,"status":"error","kind":..,"message":..}].

    The error-kind taxonomy extends the run-manifest one (["exception"],
    ["model-violation"], ["timeout"], ["cancelled"]) with the server-side
    kinds ["usage"] (malformed or invalid request body), ["protocol"]
    (broken framing or JSON), ["overloaded"] (admission queue full or the
    sojourn controller shed the job — load was refused), ["expired"] (the
    request's own [budget_ms] lapsed while it waited in the queue, so the
    server refused to burn work its client had already given up on), and
    ["draining"] (the server is shutting down and refuses new work).

    ["overloaded"] and ["expired"] replies may carry a [retry_after_ms]
    hint: a server-jittered backoff suggestion.  Clients that honour it
    (see {!Gc_resil.Resilient_client}) desynchronize instead of forming
    the retry storm that keeps an overload metastable. *)

type workload = {
  workload : string;  (** A {!Gc_trace.Workload_suite.standard} name. *)
  n : int;
  universe : int;
  block_size : int;
}

type sim = {
  policy : string;
  k : int;
  seed : int;
  load : workload;
  check : bool;  (** Run the shadow-model audit. *)
}

type curve = {
  curve_policy : string;
  ks : int list;
  curve_seed : int;
  curve_load : workload;
}

type op =
  | Sim of sim
  | Miss_curve of curve
  | Health
  | Stats

type request = {
  id : Gc_obs.Json.t option;
  op : op;
  budget_ms : int option;
      (** The client's end-to-end patience in milliseconds; queue sojourn
          is charged against it before execution starts.  [None] leaves
          the server's own deadline in sole charge. *)
}

(** {1 Validation limits}

    Every request is validated against hard caps before any work is
    admitted, so a single request cannot ask for an unbounded amount of
    memory or compute.  [k] and [budget_ms] are capped too (at 2^28
    and one hour); the error message names the cap. *)

val max_trace_n : int
(** 5_000_000 requests per generated trace. *)

val max_universe : int
val max_curve_points : int

val parse_request : Gc_obs.Json.t -> (request, string) result
(** Validate a decoded frame into a request.  [Error] messages name the
    offending field and the valid choices or range (they travel back to
    the client in a ["usage"]-kind reply). *)

val request_to_json : request -> Gc_obs.Json.t
(** Encode a request (the client side of the wire). *)

(** {1 Error kinds} *)

val kind_usage : string
val kind_protocol : string
val kind_overloaded : string
val kind_draining : string
val kind_expired : string
val kind_timeout : string
val kind_cancelled : string
val kind_exception : string

(** {1 Response encoders} *)

val ok : ?id:Gc_obs.Json.t -> Gc_obs.Json.t -> Gc_obs.Json.t

val error :
  ?id:Gc_obs.Json.t -> ?retry_after_ms:int -> kind:string -> string ->
  Gc_obs.Json.t
(** [retry_after_ms] attaches a backoff hint to the envelope (meaningful
    on ["overloaded"]/["expired"] replies). *)

val retry_after_ms : Gc_obs.Json.t -> int option
(** Read the backoff hint off a raw reply document, if present and a
    positive integer. *)

type reply =
  | Ok_result of Gc_obs.Json.t
  | Err of string * string  (** (kind, message). *)

val reply_of_json : Gc_obs.Json.t -> (Gc_obs.Json.t option * reply, string) result
(** Decode a response frame into (echoed id, reply); [Error] for a
    document that is not a well-formed response envelope. *)

val op_name : op -> string
(** ["sim"], ["miss-curve"], ["health"], ["stats"] — metric label values. *)
