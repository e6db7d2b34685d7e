(** Simulation counters.

    Beyond the usual hit/miss accounting, we split hits into {e temporal}
    and {e spatial} per the paper's Section 2: a hit on item [I] is spatial
    when [I] was brought into the cache by a miss on a {e different} item of
    its block and has not been referenced since it was loaded; every other
    hit is temporal. *)

type t = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable spatial_hits : int;
  mutable temporal_hits : int;
  mutable cold_misses : int;  (** Misses on never-before-seen items. *)
  mutable items_loaded : int;  (** Total items brought in across all loads. *)
  mutable evictions : int;
}

val create : unit -> t
val reset : t -> unit
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val hit_rate : t -> float
val miss_rate : t -> float

val fault_rate : t -> float
(** Synonym of [miss_rate]; the paper's locality-model metric. *)

val copy : t -> t
(** An independent snapshot. *)

val fields : t -> (string * int) list
(** Every counter as [(key, value)], in declaration order.  The keys are
    stable identifiers shared by {!to_row}, {!to_json}, and the run
    manifests. *)

val pp : Format.formatter -> t -> unit

val to_row : t -> string
(** One-line [key=value] summary used by the CLI tools: the {!fields} in
    order, plus [hit_rate] after [misses].  No padding — grep/awk friendly. *)

val to_json : t -> Gc_obs.Json.t
(** The {!fields} plus derived [hit_rate]/[miss_rate], as a JSON object. *)
