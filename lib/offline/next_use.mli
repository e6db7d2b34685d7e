(** Next-use precomputation shared by the offline policies.

    [never] marks "no further use"; it compares greater than every position
    so max-comparisons work directly. *)

val never : int
(** [max_int]. *)

type t

val of_trace : Gc_trace.Trace.t -> t

val at : t -> int -> int
(** [at t pos] is the next position after [pos] at which the item requested
    at [pos] is requested again ([never] if none). *)

val after : t -> pos:int -> item:int -> int
(** [after t ~pos ~item] is the first position [>= pos] at which [item] is
    requested ([never] if none).  [pos] must move forward monotonically per
    item between calls with the same [t] — the implementation keeps a
    cursor per item, starting at its first position, and walks it along
    {!at}'s chain. *)

