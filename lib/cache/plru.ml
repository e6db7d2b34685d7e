(* Tree-PLRU over [ways] slots, padded to [padded] = next power of two.

   Heap-layout complete binary tree: internal nodes 0 .. padded-2 (children
   of [n] are [2n+1]/[2n+2]), leaves [padded-1 .. 2*padded-2], leaf
   [padded-1+s] owning slot [s].  [bits.(n) = 0] sends the victim walk
   left, [1] right; touching a slot sets every bit on its root path to
   point at the other child.  Slots [>= ways] are phantom padding and are
   never filled; the victim walk refuses to descend into a subtree made
   only of phantoms (only ever possible rightwards, since slot ranges grow
   left to right). *)

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

module Strategy = struct
  type t = {
    ways : int;
    padded : int;
    slots : int array; (* length [padded]; -1 = empty *)
    bits : int array; (* length [padded - 1] *)
    index : int array; (* item -> slot by linear probing: a slot, or -1 *)
    shift : int; (* Sys.int_size - log2 (Array.length index) *)
    mutable count : int;
    mutable free : int; (* the lowest free slot *)
  }

  type config = int (* ways *)

  let name = "plru"

  let create ways =
    let padded = next_pow2 ways 1 in
    {
      ways;
      padded;
      slots = Array.make padded (-1);
      bits = Array.make (max 0 (padded - 1)) 0;
      index = Array.make (2 * padded) (-1);
      shift = Sys.int_size - 1 - log2 padded;
      count = 0;
      free = 0;
    }

  (* [index] holds at most [ways] of its [2 * padded] cells, so probe runs
     stay short; an entry's key is the item in the slot it names.  The
     multiplicative hash keeps the product's top bits, which spread ids
     that differ only in high bits. *)
  let home t item = (item * 0x2545F4914F6CDD1D) lsr t.shift

  (* The cell holding [item]'s slot, or the empty cell ending its run. *)
  let rec probe t item cell =
    let slot = t.index.(cell) in
    if slot < 0 || t.slots.(slot) = item then cell
    else probe t item ((cell + 1) land (Array.length t.index - 1))

  let cell_of t item = probe t item (home t item)
  let mem t item = t.index.(cell_of t item) >= 0

  (* Backward-shift deletion: later entries of the run move into the hole
     unless their home lies cyclically after it. *)
  let rec close_hole t hole cell =
    let mask = Array.length t.index - 1 in
    let cell = (cell + 1) land mask in
    let slot = t.index.(cell) in
    if slot >= 0 then begin
      let dist_home = (cell - home t t.slots.(slot)) land mask in
      if dist_home >= (cell - hole) land mask then begin
        t.index.(hole) <- slot;
        t.index.(cell) <- -1;
        close_hole t cell cell
      end
      else close_hole t hole cell
    end

  let size t = t.count

  (* Point every bit on [slot]'s root path away from it: a left child has
     an odd index, and its parent's bit must send the walk right.  Nodes
     run from [padded - 1 + slot] up to 1, so parents stay within
     [bits]. *)
  let touch t slot =
    let node = ref (t.padded - 1 + slot) in
    while !node > 0 do
      let parent = (!node - 1) lsr 1 in
      Array.unsafe_set t.bits parent (!node land 1);
      node := parent
    done

  let hit t item =
    let slot = t.index.(cell_of t item) in
    if slot < 0 then false
    else begin
      touch t slot;
      true
    end

  (* Hardware fills invalid ways before consulting the tree; lowest-index
     first keeps it deterministic.  Only called with a free slot available
     (the functor evicts first).  The functor evicts only from a full
     cache, one way per insert, so the lowest free way is slot [count]
     while the cache warms and the one [pop_victim] emptied after that. *)
  let insert t item =
    let slot = t.free in
    t.slots.(slot) <- item;
    t.index.(cell_of t item) <- slot;
    t.count <- t.count + 1;
    t.free <- t.count;
    touch t slot

  (* Follow the bits from the root; going right is only legal when the
     right subtree contains a real way.  Only called when full, so every
     real way is occupied.  Only internal nodes (below [padded - 1]) read
     [bits]. *)
  let rec victim_slot t node low high =
    if node >= t.padded - 1 then node - (t.padded - 1)
    else begin
      let mid = (low + high) lsr 1 in
      if Array.unsafe_get t.bits node = 1 && mid + 1 < t.ways then
        victim_slot t ((2 * node) + 2) (mid + 1) high
      else victim_slot t ((2 * node) + 1) low mid
    end

  let pop_victim t =
    let slot = victim_slot t 0 0 (t.padded - 1) in
    let item = t.slots.(slot) in
    let cell = cell_of t item in
    t.index.(cell) <- -1;
    close_hole t cell cell;
    t.slots.(slot) <- -1;
    t.free <- slot;
    t.count <- t.count - 1;
    item
end

module M = Item_policy.Make (Strategy)

let create ~k = M.create ~k k
