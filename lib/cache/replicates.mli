(** Replicate statistics for randomized policies.

    Marking, GCM and friends are randomized; single-run miss counts are
    noisy.  This module reruns a policy constructor across seeds and
    summarizes. *)

type summary = {
  runs : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

val misses :
  make:(seed:int -> Policy.t) ->
  trace:Gc_trace.Trace.t ->
  seeds:int list ->
  summary
(** Simulate (unchecked) once per seed and summarize the miss counts. *)

val summarize : float list -> summary

val pp : Format.formatter -> summary -> unit
