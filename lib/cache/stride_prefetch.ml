module P = struct
  type t = {
    k : int;
    degree : int;
    blocks : Gc_trace.Block_map.t;
    recency : Lru_core.t;
  }

  let name = "stride-prefetch"
  let k t = t.k
  let mem t x = Lru_core.mem t.recency x
  let occupancy t = Lru_core.size t.recency

  let access t x =
    if Lru_core.refresh t.recency x then Policy.Hit { evicted = [] }
    else begin
      let blk = Gc_trace.Block_map.block_of t.blocks x in
      (* The next [degree] items after x within the same block, uncached. *)
      let prefetch =
        List.init t.degree (fun d -> x + d + 1)
        |> List.filter (fun y ->
               Gc_trace.Block_map.block_of t.blocks y = blk
               && not (Lru_core.mem t.recency y))
      in
      let to_load = x :: prefetch in
      let need = List.length to_load in
      let evicted = ref [] in
      while Lru_core.size t.recency + need > t.k do
        evicted := Lru_core.pop_lru t.recency :: !evicted
      done;
      (* Prefetches enter below the demand miss in recency order. *)
      List.iter (Lru_core.touch t.recency) (List.rev prefetch);
      Lru_core.touch t.recency x;
      Policy.Miss { loaded = to_load; evicted = !evicted }
    end
end

let create ~k ~degree ~blocks =
  if k < 1 then invalid_arg "Stride_prefetch.create: k must be >= 1";
  if degree < 0 then invalid_arg "Stride_prefetch.create: degree must be >= 0";
  if k <= degree then
    invalid_arg "Stride_prefetch.create: k must exceed the prefetch degree";
  Policy.Instance
    ( (module P),
      { P.k; degree; blocks; recency = Lru_core.create () } )
