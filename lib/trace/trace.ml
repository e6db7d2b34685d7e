type t = {
  requests : int array;
  blocks : Block_map.t;
}

let make blocks requests =
  Array.iter
    (fun r -> if r < 0 then invalid_arg "Trace.make: negative item id")
    requests;
  { requests; blocks }

let of_list blocks l = make blocks (Array.of_list l)

let length t = Array.length t.requests

let get t i = t.requests.(i)

let block_at t i = Block_map.block_of t.blocks t.requests.(i)

let iter f t = Array.iter f t.requests

let iteri f t = Array.iteri f t.requests

let fold f init t = Array.fold_left f init t.requests

let concat = function
  | [] -> invalid_arg "Trace.concat: empty list"
  | first :: _ as ts ->
      let requests = Array.concat (List.map (fun t -> t.requests) ts) in
      { requests; blocks = first.blocks }

let sub t ~pos ~len = { t with requests = Array.sub t.requests pos len }

let distinct_of_array proj t =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      let v = proj r in
      if not (Hashtbl.mem seen v) then Hashtbl.add seen v ())
    t.requests;
  Hashtbl.length seen

let distinct_items t = distinct_of_array (fun r -> r) t

let distinct_blocks t = distinct_of_array (Block_map.block_of t.blocks) t

let universe t =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun r -> if not (Hashtbl.mem seen r) then Hashtbl.add seen r ())
    t.requests;
  let out = Array.make (Hashtbl.length seen) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun item () ->
      out.(!i) <- item;
      incr i)
    seen;
  Array.sort compare out;
  out

let max_item t = Array.fold_left max (-1) t.requests

(* FNV-1a (64-bit) over the block size, the length, and each request with
   its block id.  Covers everything that affects a simulation: the same
   requests under a different partition digest differently.  An explicit
   map is digested as its file round trip reads it: blocks numbered in
   order of first reference, and the widest referenced block as B. *)
let digest t =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  let mix v =
    (* Mix an int little-endian, 8 bytes. *)
    let v = ref (Int64.of_int v) in
    for _ = 0 to 7 do
      let byte = Int64.to_int (Int64.logand !v 0xFFL) in
      h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) prime;
      v := Int64.shift_right_logical !v 8
    done
  in
  let b, block_id =
    if Block_map.is_uniform t.blocks then
      (Block_map.block_size t.blocks, Block_map.block_of t.blocks)
    else begin
      let ordinal = Hashtbl.create 64 and widest = ref 1 in
      Array.iter
        (fun r ->
          let blk = Block_map.block_of t.blocks r in
          if not (Hashtbl.mem ordinal blk) then begin
            Hashtbl.add ordinal blk (Hashtbl.length ordinal);
            widest := max !widest (Array.length (Block_map.items_of t.blocks blk))
          end)
        t.requests;
      (!widest, fun r -> Hashtbl.find ordinal (Block_map.block_of t.blocks r))
    end
  in
  mix b;
  mix (Array.length t.requests);
  Array.iter
    (fun r ->
      mix r;
      mix (block_id r))
    t.requests;
  Printf.sprintf "fnv1a64:%016Lx" !h

let pp fmt t =
  Format.fprintf fmt "trace(len=%d, items=%d, blocks=%d, %a)" (length t)
    (distinct_items t) (distinct_blocks t) Block_map.pp t.blocks
