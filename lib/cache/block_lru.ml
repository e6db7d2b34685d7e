(* A block loads and leaves whole, so residency is kept per block: an item
   is cached exactly when its block is in [recency].  A block's items are
   read from the map once, on its first load, into a list that every later
   outcome loading or evicting the block shares, so a miss allocates no
   item list of its own. *)
module Lists = Int_table

module P = struct
  type members = { width : int; items : int list  (* ascending *) }

  type t = {
    k : int;
    blocks : Gc_trace.Block_map.t;
    recency : Lru_core.t;  (* keys are block ids *)
    mutable occ : int;
    members : members Lists.t;  (* every block loaded so far *)
  }

  let name = "block-lru"
  let k t = t.k

  let mem t item =
    Lru_core.mem t.recency (Gc_trace.Block_map.block_of t.blocks item)

  let occupancy t = t.occ

  let members t blk =
    match Lists.find t.members blk with
    | m -> m
    | exception Not_found ->
        let items = Gc_trace.Block_map.items_of t.blocks blk in
        let m = { width = Array.length items; items = Array.to_list items } in
        Lists.add t.members blk m;
        m

  (* The evicted block's items, ascending, go in front of those of blocks
     evicted earlier on the same miss. *)
  let evict_lru_block t acc =
    let m = members t (Lru_core.pop_lru t.recency) in
    t.occ <- t.occ - m.width;
    match acc with [] -> m.items | _ -> m.items @ acc

  let access t item =
    let blk = Gc_trace.Block_map.block_of t.blocks item in
    if Lru_core.refresh t.recency blk then Policy.Hit { evicted = [] }
    else begin
      let incoming = members t blk in
      let evicted = ref [] in
      while t.occ + incoming.width > t.k do
        evicted := evict_lru_block t !evicted
      done;
      Lru_core.add t.recency blk;
      t.occ <- t.occ + incoming.width;
      Policy.Miss { loaded = incoming.items; evicted = !evicted }
    end
end

let create ~k ~blocks =
  let b = Gc_trace.Block_map.block_size blocks in
  if k < b then invalid_arg "Block_lru.create: k smaller than block size";
  Policy.Instance
    ((module P), { P.k; blocks; recency = Lru_core.create (); occ = 0; members = Lists.create 64 })
