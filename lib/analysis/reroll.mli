(** Loop re-rolling: recover program structure from flat traces.

    A recorded trace is a flat item sequence; the analyses want loops back.
    Re-rolling finds {e exact} contiguous repeats — at each position the
    period maximizing covered length with at least two full repetitions —
    and folds them into [Loop] nodes, recursing into long loop bodies so
    nested structure (a stencil's per-row pattern inside its sweep) is
    recovered too.  Unrolling the result reproduces the input exactly, so
    re-rolling never changes what the program {e does}, only how compactly
    the analyses traverse it. *)

val of_items : Gc_trace.Block_map.t -> int array -> Program.t
(** [of_items blocks items] re-rolls a flat request sequence.  Candidate
    loop bodies are at most 256 items long. *)

val of_trace : Gc_trace.Trace.t -> Program.t
(** {!of_items} over a trace's requests, keeping its block map. *)

val compression : Program.t -> float
(** [unrolled_length / static size] — 1.0 means nothing re-rolled. *)
