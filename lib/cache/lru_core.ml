(* A circular doubly linked list through a sentinel, indexed by a chained
   hash table whose chains run through the nodes themselves, all in one
   flat int array.  A node is four ints at an offset [p]: its key at [p],
   its neighbours towards the MRU and the LRU end at [p + 1] and [p + 2],
   and the next node of its bucket at [p + 3].  The sentinel is the node
   at 0: it is both the list's end and every chain's terminator, so
   "absent" is 0 and no link is ever an [option].  Slot [s] starts at
   [4s].  Every link is an offset, so relinking a node stores immediates
   and never passes the write barrier.

   Besides the sentinel the array has room for a power of two of keys, so
   a cache of 2^j keys, the usual size, fits without doubling (a set of 8
   ways grows once, to a 40-word array).  The chain heads, one per two
   keys (load factor at most 2, as Stdlib.Hashtbl), follow the slots,
   bucket [b] in the [b]-th int from the end.

   Freed slots are kept on a free list threaded through their LRU-side
   links and reused first.  When it runs dry the room doubles, slots and
   heads together, so growing allocates one array where separate node and
   bucket stores would allocate two.  Every link holds the offset of a
   slot inside [nodes], and [nodes] only grows, so the unchecked reads and
   writes below stay in bounds. *)

let prev = 1  (* towards the MRU end *)
let next = 2  (* towards the LRU end; the free list's link *)
let chain = 3

type t = {
  mutable nodes : int array;
      (* the sentinel and [room] slots, then room / 2 chain heads;
         nodes.(next) is the MRU node, nodes.(prev) the LRU one *)
  mutable shift : int;  (* Sys.int_size - log2 (room / 2) *)
  mutable size : int;
  mutable free : int;  (* first free slot, 0 when there is none *)
}

external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

let room t = 2 lsl (Sys.int_size - t.shift)

let slot s = 4 * s

(* Threads slots [first, last] onto the empty free list, lowest first. *)
let thread_free t nodes first last =
  for s = first to last - 1 do
    set nodes (slot s + next) (slot (s + 1))
  done;
  t.free <- slot first

(* Room for 4 keys and 2 chain heads: policies such as lfu make many
   short-lived instances, one per frequency level, so an empty one must
   stay small. *)
let create () =
  let nodes = Array.make (slot 5 + 2) 0 in
  let t = { nodes; shift = Sys.int_size - 1; size = 0; free = 0 } in
  thread_free t nodes 1 4;
  t

let size t = t.size

(* The offset of the key's chain head.  Multiplicative hashing keeps the
   product's top bits, so keys that differ only in high bits (ids spaced
   2^40 apart) still spread over buckets. *)
let head t key = Array.length t.nodes - 1 - ((key * 0x2545F4914F6CDD1D) lsr t.shift)

let rec find_in nodes key p =
  if p = 0 || get nodes p = key then p else find_in nodes key (get nodes (p + chain))

let find t key = find_in t.nodes key (get t.nodes (head t key))

let mem t key = find t key <> 0

let unlink nodes p =
  let before = get nodes (p + prev) and after = get nodes (p + next) in
  set nodes (before + next) after;
  set nodes (after + prev) before

let push_front nodes p =
  let first = get nodes next in
  set nodes (p + next) first;
  set nodes (p + prev) 0;
  set nodes (first + prev) p;
  set nodes next p

let move_to_front nodes p =
  if get nodes next <> p then begin
    unlink nodes p;
    push_front nodes p
  end

let rec rechain t nodes p =
  if p <> 0 then begin
    let h = head t (get nodes p) in
    set nodes (p + chain) (get nodes h);
    set nodes h p;
    rechain t nodes (get nodes (p + next))
  end

(* Doubles the room and the chain heads, frees the new slots and rehashes
   every node. *)
let grow t =
  let room = room t in
  let nodes = Array.make (slot ((2 * room) + 1) + room) 0 in
  Array.blit t.nodes 0 nodes 0 (slot (room + 1));
  t.nodes <- nodes;
  t.shift <- t.shift - 1;
  thread_free t nodes (room + 1) (2 * room);
  rechain t nodes (get nodes next)

let add t key =
  if t.free = 0 then grow t;
  let nodes = t.nodes in
  let p = t.free in
  t.free <- get nodes (p + next);
  let h = head t key in
  set nodes p key;
  set nodes (p + chain) (get nodes h);
  set nodes h p;
  t.size <- t.size + 1;
  push_front nodes p

let touch t key =
  let p = find t key in
  if p = 0 then add t key else move_to_front t.nodes p

let refresh t key =
  let p = find t key in
  if p = 0 then false
  else begin
    move_to_front t.nodes p;
    true
  end

let insert_if_absent t key = if find t key = 0 then add t key

(* A node is always on its own chain, so the walk finds it before the
   chain's end, 0. *)
let rec chain_pred nodes p q =
  let c = get nodes (q + chain) in
  assert (c <> 0);
  if c = p then q else chain_pred nodes p c

let detach t p =
  let nodes = t.nodes in
  let h = head t (get nodes p) in
  let first = get nodes h in
  if first = p then set nodes h (get nodes (p + chain))
  else set nodes (chain_pred nodes p first + chain) (get nodes (p + chain));
  unlink nodes p;
  t.size <- t.size - 1;
  set nodes (p + next) t.free;
  t.free <- p

let remove t key =
  let p = find t key in
  if p <> 0 then detach t p

let lru t = if t.size = 0 then None else Some (get t.nodes (get t.nodes prev))

let mru t = if t.size = 0 then None else Some (get t.nodes (get t.nodes next))

let pop_lru t =
  assert (t.size > 0);
  let p = get t.nodes prev in
  let key = get t.nodes p in
  detach t p;
  key

let rec cons_towards_mru nodes p acc =
  if p = 0 then acc else cons_towards_mru nodes (get nodes (p + prev)) (get nodes p :: acc)

let to_list_mru_first t = cons_towards_mru t.nodes (get t.nodes prev) []
