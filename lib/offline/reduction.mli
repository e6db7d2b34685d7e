(** The Theorem-1 reduction: variable-size caching → GC caching.

    For every variable-size item [v] of (integer) size [z], the reduction
    creates one block whose {e active set} holds [z] fresh GC items.  Every
    request to [v] becomes [z] round-robin sweeps over the active set
    ([z * z] accesses); the repetition forces any optimal GC cache to load
    and evict active sets atomically, so the optimal GC cost equals the
    optimal variable-size cost (see the paper's proof and Figure 2).

    The paper's preliminary size-scaling step (rational → integral sizes)
    is assumed done: {!Varsize.instance} already carries integer sizes. *)

type t = {
  trace : Gc_trace.Trace.t;  (** The generated GC caching trace. *)
  capacity : int;  (** Cache size of the GC instance (same as the input's). *)
  active_sets : int array array;
      (** [active_sets.(v)] lists the GC items standing for item [v]. *)
}

val reduce : Varsize.instance -> t

val verify : Varsize.instance -> (int * int, string) result
(** Solve both sides exactly; [Ok (varsize_opt, gc_opt)] when they agree,
    [Error _] describing the mismatch otherwise. *)
