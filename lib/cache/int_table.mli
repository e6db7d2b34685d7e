(** Hash tables keyed by int.

    [Hashtbl.Make (Int)] hashes a key with [Hashtbl.hash], a call into the
    runtime's C code on every lookup.  This table mixes the key in OCaml
    instead: its halves are folded together, multiplied by an odd 64-bit
    constant and folded again, so keys that differ only in their high bits
    (ids spaced 2^40 apart) still spread over the buckets [Hashtbl] picks
    from the low bits.  Used for block-lru's member lists and the
    simulator's sparse item ids. *)

include Hashtbl.S with type key = int
