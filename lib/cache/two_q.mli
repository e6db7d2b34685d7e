(** 2Q (Johnson & Shasha 1994), simplified full-version, item granularity.

    A FIFO admission queue [A1in] filters one-hit wonders; items re-
    referenced after leaving it (tracked by the ghost queue [A1out]) enter
    the main LRU [Am].  Another spatially blind Item Cache baseline. *)

val create : k:int -> Policy.t
(** A quarter of [k] goes to A1in; the ghost A1out remembers [k / 2] keys
    (each at least one).  [k >= 2]. *)
