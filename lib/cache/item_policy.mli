(** Functor building an Item-Cache policy from an eviction strategy.

    An {e Item Cache} (paper Section 2, "Baseline policies") loads only the
    requested item on a miss.  All such policies share the same skeleton and
    differ only in victim selection; this functor captures the skeleton so
    LRU / FIFO / LFU / CLOCK / random share one audited implementation. *)

module type STRATEGY = sig
  type t
  type config

  val name : string
  val create : config -> t
  val mem : t -> int -> bool
  val size : t -> int

  val hit : t -> int -> bool
  (** The item was just requested: if it is present, record the
      re-reference and answer [true]; if it is absent, change nothing and
      answer [false].  One lookup serves both the test and the update. *)

  val insert : t -> int -> unit
  (** The item is absent and was just loaded. *)

  val pop_victim : t -> int
  (** Remove and return an eviction victim; only called when non-empty. *)
end

module Make (S : STRATEGY) : sig
  val create : k:int -> S.config -> Policy.t
  (** [k >= 1]. *)
end
