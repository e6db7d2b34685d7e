(* Both IBLP forms run one layered engine; they differ only in who sets the
   item budget [i]: [create] fixes it, [adaptive] lets ghost lists move it
   by whole blocks.  The block layer always holds (k - i) / B blocks. *)
type ghosts = {
  victim_items : Lru_core.t;  (* keys of recent item-layer victims *)
  victim_blocks : Lru_core.t;  (* ids of recent block-layer victims *)
  on_repartition : item_budget:int -> block_budget:int -> unit;
}

module Engine = struct
  type t = {
    k : int;
    bsize : int;
    blocks : Gc_trace.Block_map.t;
    item_layer : Lru_core.t;  (* keys are items *)
    block_layer : Lru_core.t;  (* keys are block ids *)
    resident : (int, int array) Hashtbl.t;  (* block -> its loaded items *)
    mutable block_occ : int;
    mutable i : int;  (* item budget *)
    (* Ablation switch: the paper argues item-layer hits must NOT refresh
       the block layer's recency; setting this true measures why. *)
    reorder_on_item_hit : bool;
    ghosts : ghosts option;  (* [Some] for the adaptive form *)
  }

  let k t = t.k

  let in_block_layer t item =
    Hashtbl.mem t.resident (Gc_trace.Block_map.block_of t.blocks item)

  let mem t item = Lru_core.mem t.item_layer item || in_block_layer t item

  let occupancy t = Lru_core.size t.item_layer + t.block_occ

  (* Touch [key] in a ghost list holding at most [cap] keys. *)
  let remember ghost cap key =
    Lru_core.touch ghost key;
    if Lru_core.size ghost > cap then ignore (Lru_core.pop_lru ghost)

  (* Evict the LRU block; returns the items that left the cache entirely
     (i.e. are not duplicated in the item layer). *)
  let evict_lru_block t =
    let blk = Lru_core.pop_lru t.block_layer in
    let items = Hashtbl.find t.resident blk in
    Hashtbl.remove t.resident blk;
    t.block_occ <- t.block_occ - Array.length items;
    (match t.ghosts with
    | Some g -> remember g.victim_blocks (t.k / t.bsize) blk
    | None -> ());
    Array.fold_left
      (fun acc x -> if Lru_core.mem t.item_layer x then acc else x :: acc)
      [] items

  (* Insert into the item layer, first trimming it to leave one slot under
     the budget (which may just have shrunk, even to zero: then nothing is
     inserted); returns the items that left the cache entirely. *)
  let promote t item =
    let gone = ref [] in
    let limit = max 0 (t.i - 1) in
    while Lru_core.size t.item_layer > limit do
      let v = Lru_core.pop_lru t.item_layer in
      (match t.ghosts with Some g -> remember g.victim_items t.k v | None -> ());
      if not (in_block_layer t v) then gone := v :: !gone
    done;
    if t.i > 0 then Lru_core.touch t.item_layer item;
    !gone

  (* A miss that a larger item layer would have caught grows the item
     budget; one a larger block layer would have caught grows the block
     budget.  Steps of B keep the block layer's granularity whole. *)
  let adapt t item blk =
    match t.ghosts with
    | None -> ()
    | Some g ->
        let before = t.i in
        if Lru_core.mem g.victim_items item then begin
          Lru_core.remove g.victim_items item;
          t.i <- min (t.k - t.bsize) (t.i + t.bsize)
        end
        else if Lru_core.mem g.victim_blocks blk then begin
          Lru_core.remove g.victim_blocks blk;
          t.i <- max 0 (t.i - t.bsize)
        end;
        if t.i <> before then
          g.on_repartition ~item_budget:t.i ~block_budget:(t.k - t.i)

  let access t item =
    if Lru_core.refresh t.item_layer item then begin
      (* Item-layer hit: refresh item recency only; the block layer's order
         must not be disturbed by temporal locality (unless the ablation
         switch says otherwise). *)
      if t.reorder_on_item_hit then begin
        let blk = Gc_trace.Block_map.block_of t.blocks item in
        if Hashtbl.mem t.resident blk then Lru_core.touch t.block_layer blk
      end;
      Policy.Hit { evicted = [] }
    end
    else begin
      let blk = Gc_trace.Block_map.block_of t.blocks item in
      if Hashtbl.mem t.resident blk then begin
        (* Block-layer hit: the block served the access, so it is
           re-referenced; the item is also promoted into the item layer.
           Items displaced from the item layer may still be covered by a
           resident block, in which case they stay cached (no space change:
           the duplicate copy is dropped). *)
        Lru_core.touch t.block_layer blk;
        let gone = promote t item in
        Policy.Hit { evicted = gone }
      end
      else begin
        adapt t item blk;
        let evicted = ref [] in
        let loaded = ref [] in
        (* Block layer first (if it can hold a block): item-layer trimming
           below must see the block as resident so that same-block victims
           are not reported evicted. *)
        let cap_blocks = (t.k - t.i) / t.bsize in
        if cap_blocks > 0 then begin
          while Lru_core.size t.block_layer >= cap_blocks do
            evicted := evict_lru_block t @ !evicted
          done;
          let incoming = Gc_trace.Block_map.items_of t.blocks blk in
          Lru_core.touch t.block_layer blk;
          Hashtbl.add t.resident blk incoming;
          t.block_occ <- t.block_occ + Array.length incoming;
          (* Newly cached = block items not duplicated in the item layer. *)
          Array.iter
            (fun x ->
              if not (Lru_core.mem t.item_layer x) then loaded := x :: !loaded)
            incoming
        end
        else loaded := [ item ];
        (* Item layer: load the requested item.  An item evicted from the
           block layer cannot be re-loaded within one access since the
           loaded block is fresh. *)
        let gone = promote t item in
        evicted := gone @ !evicted;
        Policy.Miss { loaded = !loaded; evicted = !evicted }
      end
    end
end

module Fixed = struct
  include Engine

  let name = "iblp"
end

module Adaptive = struct
  include Engine

  let name = "iblp-adaptive"
end

let state ~ghosts ~reorder_on_item_hit ~k ~i ~blocks =
  {
    Engine.k;
    bsize = Gc_trace.Block_map.block_size blocks;
    blocks;
    item_layer = Lru_core.create ();
    block_layer = Lru_core.create ();
    resident = Hashtbl.create 256;
    block_occ = 0;
    i;
    reorder_on_item_hit;
    ghosts;
  }

let create ?(reorder_on_item_hit = false) ~i ~b ~blocks () =
  if i < 0 || b < 0 || i + b < 1 then
    invalid_arg "Iblp.create: need i, b >= 0 and i + b >= 1";
  if i = 0 && b / Gc_trace.Block_map.block_size blocks = 0 then
    invalid_arg "Iblp.create: cache cannot hold anything (i = 0, b < B)";
  Policy.Instance
    ( (module Fixed),
      state ~ghosts:None ~reorder_on_item_hit ~k:(i + b) ~i ~blocks )

let adaptive ?(on_repartition = fun ~item_budget:_ ~block_budget:_ -> ()) ~k
    ~blocks () =
  let bsize = Gc_trace.Block_map.block_size blocks in
  if k < 2 * bsize then
    invalid_arg "Iblp.adaptive: k must be >= 2 * block size";
  let ghosts =
    Some
      {
        victim_items = Lru_core.create ();
        victim_blocks = Lru_core.create ();
        on_repartition;
      }
  in
  Policy.Instance
    ( (module Adaptive),
      state ~ghosts ~reorder_on_item_hit:false ~k ~i:(k / 2 / bsize * bsize)
        ~blocks )
