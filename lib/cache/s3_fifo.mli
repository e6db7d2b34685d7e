(** S3-FIFO (Yang et al. 2023), item granularity.

    Three FIFO queues: a small probationary queue absorbs one-hit wonders,
    a main queue holds promoted items (lazy promotion: re-referenced small-
    queue items move to main on eviction), and a ghost queue remembers
    recently rejected keys so their return skips probation.  A modern,
    simple, scan-resistant baseline — and, like every Item Cache, subject
    to Theorem 2 unchanged. *)

val create : k:int -> Policy.t
(** A tenth of [k] goes to the small queue (at least one slot).
    [k >= 2]. *)
