(** Address streams of classic computational kernels.

    Beyond the micro-patterns in {!Workloads}, these model whole kernels
    whose cache behaviour is textbook material — useful to see where
    granularity-change caching pays off on "real" computations.

    All kernels emit {e data} accesses only (no instruction stream) at
    element granularity; the hierarchy maps them onto lines and rows. *)

(** {1 Catalog}

    The canonical parameterizations are the only way in, so tests, the
    bench harness, and the static-analysis lowering ({!Gc_analysis}) all
    drive the same kernels instead of re-plumbing parameters at every call
    site. *)

type size =
  | Small  (** Seconds-fast shapes for tests and static analysis. *)
  | Bench  (** The bench harness's larger shapes. *)

type entry = {
  name : string;  (** Stable identifier, e.g. ["matmul-naive"]. *)
  doc : string;
  generate : size -> seed:int -> int array;
      (** Byte-address stream; deterministic in [size] and [seed] (the
          randomized kernels derive their {!Gc_trace.Rng} from [seed]). *)
}

val catalog : entry list
(** Every kernel, in a stable order; names are unique. *)

val find : string -> entry option

val names : string list
