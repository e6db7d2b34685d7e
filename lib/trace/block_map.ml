type explicit = {
  b : int;  (* max block size *)
  block_of_item : (int, int) Hashtbl.t;
  items_of_block : (int, int array) Hashtbl.t;
  next_fresh : int ref;  (* next block id for items outside the partition *)
}

type t =
  | Uniform of int
  | Explicit of explicit

let uniform ~block_size =
  if block_size < 1 then invalid_arg "Block_map.uniform: block_size < 1";
  Uniform block_size

let singleton = Uniform 1

let of_blocks bs =
  let block_of_item = Hashtbl.create 64 in
  let items_of_block = Hashtbl.create 64 in
  let b = ref 1 in
  List.iteri
    (fun block items ->
      if Array.length items = 0 then invalid_arg "Block_map.of_blocks: empty block";
      b := max !b (Array.length items);
      let sorted = Array.copy items in
      Array.sort compare sorted;
      Array.iter
        (fun item ->
          if Hashtbl.mem block_of_item item then
            invalid_arg "Block_map.of_blocks: item in two blocks";
          Hashtbl.add block_of_item item block)
        sorted;
      Hashtbl.add items_of_block block sorted)
    bs;
  let next_fresh = ref (List.length bs) in
  Explicit { b = !b; block_of_item; items_of_block; next_fresh }

let block_size = function Uniform b -> b | Explicit e -> e.b

let block_of t item =
  match t with
  | Uniform b -> if item >= 0 then item / b else (item - b + 1) / b
  | Explicit e -> (
      match Hashtbl.find_opt e.block_of_item item with
      | Some blk -> blk
      | None ->
          (* Unlisted items get fresh singleton blocks, assigned lazily so
             that repeated queries are stable. *)
          let blk = !(e.next_fresh) in
          incr e.next_fresh;
          Hashtbl.add e.block_of_item item blk;
          Hashtbl.add e.items_of_block blk [| item |];
          blk)

let assigned t item =
  match t with Uniform _ -> true | Explicit e -> Hashtbl.mem e.block_of_item item

let items_of t block =
  match t with
  | Uniform b -> Array.init b (fun j -> (block * b) + j)
  | Explicit e -> (
      match Hashtbl.find_opt e.items_of_block block with
      | Some items -> Array.copy items
      | None -> [||])

let same_block t i j = block_of t i = block_of t j

let is_uniform = function Uniform _ -> true | Explicit _ -> false

let pp fmt = function
  | Uniform b -> Format.fprintf fmt "uniform(B=%d)" b
  | Explicit e ->
      Format.fprintf fmt "explicit(B=%d, %d blocks)" e.b
        (Hashtbl.length e.items_of_block)
