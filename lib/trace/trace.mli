(** A request trace over an item universe partitioned into blocks.

    A trace is the pair of (i) a sequence of item requests and (ii) the block
    partition that gives the requests their spatial structure.  Items are
    non-negative integers. *)

type t = private {
  requests : int array;
  blocks : Block_map.t;
}

val make : Block_map.t -> int array -> t
(** [make blocks requests] wraps a request array (takes ownership; callers
    must not mutate the array afterwards). *)

val of_list : Block_map.t -> int list -> t

val length : t -> int

val get : t -> int -> int
(** [get t i] is the [i]-th request. *)

val block_at : t -> int -> int
(** [block_at t i] is the block of the [i]-th request. *)

val iter : (int -> unit) -> t -> unit

val iteri : (int -> int -> unit) -> t -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val concat : t list -> t
(** Concatenate traces sharing the same block map (physical equality is not
    required, but block sizes must agree; the first trace's map is kept). *)

val sub : t -> pos:int -> len:int -> t

val distinct_items : t -> int
(** Number of distinct items requested. *)

val distinct_blocks : t -> int
(** Number of distinct blocks touched. *)

val universe : t -> int array
(** Sorted array of distinct items requested. *)

val max_item : t -> int
(** Largest item id in the trace; [-1] if empty. *)

val digest : t -> string
(** Content digest ([fnv1a64:] plus 16 hex digits) over the requests and
    their block assignment, for identifying traces in run manifests.
    Simulation-equivalent traces digest equal, so a trace and its
    {!Trace_io} round trip do; unequal ones collide only with hash
    probability. *)

val pp : Format.formatter -> t -> unit
(** Short human-readable summary (length, universe sizes, block size). *)
