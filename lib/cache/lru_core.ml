(* A circular doubly linked list through a sentinel, indexed by a chained
   hash table whose chains run through the nodes themselves.  [root] is
   both the list's sentinel and every chain's terminator, so "absent" is
   [root] and no link is ever an [option]; a key costs one node and
   nothing else.  The node a removal frees is kept as [spare] and reused by
   the next insertion, so a full cache that evicts one key to admit another
   allocates no node. *)

type node = {
  mutable key : int;
  mutable prev : node;  (* towards the MRU end *)
  mutable next : node;  (* towards the LRU end *)
  mutable chain : node;  (* next node in the same bucket *)
}

type t = {
  root : node;  (* root.next is the MRU node, root.prev the LRU node *)
  mutable buckets : node array;  (* length a power of two *)
  mutable shift : int;  (* Sys.int_size - log2 (Array.length buckets) *)
  mutable size : int;
  mutable spare : node;  (* [root] when there is none *)
}

let initial_bits = 3

let create () =
  let rec root = { key = 0; prev = root; next = root; chain = root } in
  {
    root;
    buckets = Array.make (1 lsl initial_bits) root;
    shift = Sys.int_size - initial_bits;
    size = 0;
    spare = root;
  }

let size t = t.size

(* Multiplicative hashing keeps the product's top bits, so keys that differ
   only in high bits (ids spaced 2^40 apart) still spread over buckets. *)
let bucket t key = (key * 0x2545F4914F6CDD1D) lsr t.shift

let rec find_in root key n = if n == root || n.key = key then n else find_in root key n.chain

let find t key = find_in t.root key (Array.unsafe_get t.buckets (bucket t key))

let mem t key = find t key != t.root

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  let first = t.root.next in
  node.next <- first;
  node.prev <- t.root;
  first.prev <- node;
  t.root.next <- node

let rec rechain t node =
  if node != t.root then begin
    let b = bucket t node.key in
    node.chain <- t.buckets.(b);
    t.buckets.(b) <- node;
    rechain t node.next
  end

(* Load factor 2, as Stdlib.Hashtbl. *)
let add t key =
  if t.size >= 2 * Array.length t.buckets then begin
    t.buckets <- Array.make (2 * Array.length t.buckets) t.root;
    t.shift <- t.shift - 1;
    rechain t t.root.next
  end;
  let b = bucket t key in
  let node =
    if t.spare == t.root then { key; prev = t.root; next = t.root; chain = t.buckets.(b) }
    else begin
      let node = t.spare in
      t.spare <- t.root;
      node.key <- key;
      node.chain <- t.buckets.(b);
      node
    end
  in
  t.buckets.(b) <- node;
  t.size <- t.size + 1;
  push_front t node

let touch t key =
  let node = find t key in
  if node == t.root then add t key
  else begin
    unlink node;
    push_front t node
  end

let insert_if_absent t key = if find t key == t.root then add t key

(* A node is always on its own chain; were it not, the walk would spin at
   [root], whose chain is itself. *)
let rec chain_pred root node p =
  assert (p != root);
  if p.chain == node then p else chain_pred root node p.chain

let detach t node =
  let b = bucket t node.key in
  let head = t.buckets.(b) in
  if head == node then t.buckets.(b) <- node.chain
  else (chain_pred t.root node head).chain <- node.chain;
  unlink node;
  t.size <- t.size - 1;
  (* Its links are cut so that a spare keeps no former neighbour alive. *)
  node.prev <- t.root;
  node.next <- t.root;
  node.chain <- t.root;
  t.spare <- node

let remove t key =
  let node = find t key in
  if node != t.root then detach t node

let lru t = if t.size = 0 then None else Some t.root.prev.key

let mru t = if t.size = 0 then None else Some t.root.next.key

let pop_lru t =
  if t.size = 0 then None
  else begin
    let node = t.root.prev in
    let key = node.key in
    detach t node;
    Some key
  end

let rec cons_towards_mru root node acc =
  if node == root then acc else cons_towards_mru root node.prev (node.key :: acc)

let to_list_mru_first t = cons_towards_mru t.root t.root.prev []
