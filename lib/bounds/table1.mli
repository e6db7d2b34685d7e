(** Reproduction of the paper's Table 1: salient (augmentation, competitive
    ratio) points for the Sleator-Tarjan bound, the GC lower bound, and the
    IBLP (GC) upper bound.

    The three settings are:
    - {e constant augmentation}: fix [k = 2h], report the ratio;
    - {e ratio = augmentation}: the [k] where the ratio equals [k / h];
    - {e constant ratio}: the [k] at which the ratio drops to the small
      constant the paper quotes (2 for ST and the lower bound, 3 for the
      upper bound).

    The paper's asymptotic entries (e.g. [k ≈ sqrt(B) h ⇒ sqrt(B)x]) are
    reproduced alongside the exact numeric solutions. *)

type family = St | Gc_lower | Gc_upper

type point = { augmentation : float; ratio : float }
(** [augmentation] is [k / h]. *)

val eval : family -> k:float -> h:float -> block_size:float -> float
(** The family's competitive-ratio formula (the GC upper bound uses the
    optimal IBLP split of Section 5.3). *)

type row = {
  setting : string;
  paper_form : family -> string;  (** The table's symbolic entry. *)
  point : family -> point;  (** Our exact evaluation. *)
}

val rows : h:float -> block_size:float -> row list
(** The three Table-1 rows at the given [h] and [B]. *)
