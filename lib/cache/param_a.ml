module P = struct
  type t = {
    k : int;
    a : int;
    blocks : Gc_trace.Block_map.t;
    recency : Lru_core.t;  (* keys are items *)
    run : (int, unit) Hashtbl.t;  (* distinct items in the current run *)
    mutable run_block : int;  (* block of the current consecutive run *)
  }

  let name = "param-a"
  let k t = t.k
  let mem t x = Lru_core.mem t.recency x
  let occupancy t = Lru_core.size t.recency

  let access t x =
    let blk = Gc_trace.Block_map.block_of t.blocks x in
    if blk <> t.run_block then begin
      Hashtbl.reset t.run;
      t.run_block <- blk
    end;
    Hashtbl.replace t.run x ();
    if Lru_core.refresh t.recency x then Policy.Hit { evicted = [] }
    else begin
      let load_whole_block = Hashtbl.length t.run >= t.a in
      let to_load =
        if load_whole_block then
          Gc_trace.Block_map.items_of t.blocks blk
          |> Array.to_seq
          |> Seq.filter (fun y -> not (Lru_core.mem t.recency y))
          |> List.of_seq
        else [ x ]
      in
      let need = List.length to_load in
      let evicted = ref [] in
      while Lru_core.size t.recency + need > t.k do
        evicted := Lru_core.pop_lru t.recency :: !evicted
      done;
      (* Insert spatial prefetches first so the requested item ends up most
         recently used. *)
      List.iter
        (fun y -> if y <> x then Lru_core.touch t.recency y)
        to_load;
      Lru_core.touch t.recency x;
      Policy.Miss { loaded = to_load; evicted = !evicted }
    end
end

let create ~k ~a ~blocks =
  if k < 1 then invalid_arg "Param_a.create: k must be >= 1";
  if a < 1 then invalid_arg "Param_a.create: a must be >= 1";
  if k < Gc_trace.Block_map.block_size blocks then
    invalid_arg "Param_a.create: k smaller than block size";
  Policy.Instance
    ( (module P),
      {
        P.k;
        a;
        blocks;
        recency = Lru_core.create ();
        run = Hashtbl.create 16;
        run_block = -1;
      } )
