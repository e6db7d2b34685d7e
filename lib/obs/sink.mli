(** Pluggable event sinks.

    A sink is just a function; the simulator's probe argument has this type.
    Composite sinks (tee) and stateful consumers (ring buffer, per-kind
    counter, JSONL writer) are built here.  "Disabled" is represented by not
    attaching a probe at all, which costs nothing — [null] exists for call
    sites that must supply something. *)

type t = Event.t -> unit

val null : t
(** Drops every event. *)

val tee : t list -> t
(** Deliver each event to every sink, in order. *)

val jsonl : ?labels:(string * string) list -> out_channel -> t
(** One compact JSON object per line.  [labels] (e.g.
    [["policy", "lru"]]) are prepended to every record, so streams from
    several runs can share one file. *)

(** Bounded in-memory buffer keeping the most recent events. *)
module Ring : sig
  type sink := t
  type t

  val create : capacity:int -> t
  (** [capacity >= 1]. *)

  val sink : t -> sink
  val length : t -> int

  val total : t -> int
  (** Events ever delivered, including dropped ones. *)

  val contents : t -> Event.t list
  (** Oldest first; at most [capacity] events. *)

  val clear : t -> unit
end

(** Per-kind event tally, for cheap reconciliation against {!Metrics}-style
    counters. *)
module Count : sig
  type sink := t
  type t

  val create : unit -> t
  val sink : t -> sink
  val total : t -> int

  val by_kind : t -> (string * int) list
  (** In {!Event.kind_names} order; kinds never seen are included as 0. *)

  val get : t -> string -> int
end
