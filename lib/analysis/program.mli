(** The access-program IR the static analyses run over.

    A program is structured control flow over item accesses: straight-line
    runs, loops with a {e known, positive} iteration count, and two-armed
    branches whose direction is unknown to the analysis.  Each [Access]
    node is a distinct {e program point}; the analyses classify program
    points ([Always_hit] / [Always_miss] / [Unknown]), not dynamic
    accesses — one point inside a loop stands for every iteration's
    execution of it.

    Build programs with the {!section-spec} combinators and {!make}, which
    numbers the points in pre-order and validates the shape. *)

type stmt =
  | Access of { point : int; item : int }
  | Loop of { count : int; body : stmt list }
      (** Executes [body] exactly [count >= 1] times. *)
  | Branch of { then_ : stmt list; else_ : stmt list }
      (** Either arm may run; the analysis must cover both. *)

type t = private {
  body : stmt list;
  blocks : Gc_trace.Block_map.t;
  points : int;  (** Number of [Access] points; ids are [0 .. points-1]. *)
}

(** {2:spec Building programs} *)

type spec

val access : int -> spec
(** Request item [i >= 0]. *)

val loop : int -> spec list -> spec
(** [loop n body] with [n >= 1] iterations. *)

val branch : spec list -> spec list -> spec

val make : Gc_trace.Block_map.t -> spec list -> t
(** Assigns point ids in pre-order.  Raises [Invalid_argument] on a
    negative item, a non-positive loop count, or an unrolled length above
    the cap on {!unrolled_length} (so a malformed loop nest cannot wedge
    the interpreters). *)

(** {2 Observing programs} *)

val point_items : t -> int array
(** [point_items t].(p) is the item accessed at point [p]. *)

val unrolled_length : t -> int
(** Dynamic accesses on the longest path (loops multiplied out, branches
    counting their longer arm). *)

val executions : t -> (int * int) array list
(** Every concrete execution as a [(point, item)] sequence, one per
    resolution of the branch outcomes, in deterministic (then-first DFS)
    order.  At most 64 are returned; programs whose
    resolution space is larger are truncated, which keeps downstream
    cross-validation a sound {e partial} audit. *)

val truncated : t -> bool
(** Whether {!executions} drops some resolutions. *)

val pp : Format.formatter -> t -> unit
(** Structured listing, one point per line ([@3 access 17]). *)
