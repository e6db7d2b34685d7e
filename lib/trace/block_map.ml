type explicit = {
  b : int;  (* max block size *)
  block_of_item : (int, int) Hashtbl.t;  (* listed items only *)
  listed : int array array;  (* block id -> its items, ascending *)
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
  let b = ref 1 in
  let listed =
    Array.of_list
      (List.mapi
         (fun block items ->
           if Array.length items = 0 then
             invalid_arg "Block_map.of_blocks: empty block";
           b := max !b (Array.length items);
           let sorted = Array.copy items in
           Array.sort compare sorted;
           Array.iter
             (fun item ->
               if Hashtbl.mem block_of_item item then
                 invalid_arg "Block_map.of_blocks: item in two blocks";
               Hashtbl.add block_of_item item block)
             sorted;
           sorted)
         bs)
  in
  Explicit { b = !b; block_of_item; listed }

let block_size = function Uniform b -> b | Explicit e -> e.b

(* An unlisted item is alone in a block numbered from the item alone, so
   no query changes the map: past the listed ids for an item >= 0, at the
   item itself (below them) for a negative one. *)
let block_of t item =
  match t with
  | Uniform b -> if item >= 0 then item / b else (item - b + 1) / b
  | Explicit e -> (
      match Hashtbl.find_opt e.block_of_item item with
      | Some blk -> blk
      | None -> if item >= 0 then Array.length e.listed + item else item)

let items_of t block =
  match t with
  | Uniform b -> Array.init b (fun j -> (block * b) + j)
  | Explicit e ->
      let n = Array.length e.listed in
      if block < 0 then [| block |]
      else if block < n then Array.copy e.listed.(block)
      else [| block - n |]

let same_block t i j = block_of t i = block_of t j

let is_uniform = function Uniform _ -> true | Explicit _ -> false

let pp fmt = function
  | Uniform b -> Format.fprintf fmt "uniform(B=%d)" b
  | Explicit e ->
      Format.fprintf fmt "explicit(B=%d, %d blocks)" e.b (Array.length e.listed)
