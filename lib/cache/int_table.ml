include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* The constant is [Lru_core.head]'s.  [Hashtbl] keeps the low bits of
     the hash, and a product's low bits depend only on the key's low
     bits, so the high half is folded down before the multiply and the
     product's high half after it. *)
  let hash key =
    let h = (key lxor (key lsr 31)) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 31)
end)
