let umap block_size = Block_map.uniform ~block_size

let check_pos name v = if v < 1 then invalid_arg ("Generators." ^ name)

let sequential ~n ~universe ~block_size =
  check_pos "sequential: universe" universe;
  Trace.make (umap block_size) (Array.init n (fun i -> i mod universe))

let strided ~n ~stride ~universe ~block_size =
  check_pos "strided: universe" universe;
  check_pos "strided: stride" stride;
  Trace.make (umap block_size) (Array.init n (fun i -> i * stride mod universe))

let uniform_random rng ~n ~universe ~block_size =
  check_pos "uniform_random: universe" universe;
  Trace.make (umap block_size) (Array.init n (fun _ -> Rng.int rng universe))

let zipf_items rng ~n ~universe ~block_size ~alpha =
  check_pos "zipf_items: universe" universe;
  let z = Zipf.create ~n:universe ~alpha in
  (* Shuffle rank -> item so that hot items are scattered across blocks. *)
  let perm = Array.init universe (fun i -> i) in
  Rng.shuffle rng perm;
  Trace.make (umap block_size)
    (Array.init n (fun _ -> perm.(Zipf.sample z rng)))

let zipf_blocks rng ~n ~blocks ~block_size ~alpha ~within =
  check_pos "zipf_blocks: blocks" blocks;
  let z = Zipf.create ~n:blocks ~alpha in
  let perm = Array.init blocks (fun i -> i) in
  Rng.shuffle rng perm;
  let cursor = Array.make blocks 0 in
  let pick_item blk =
    match within with
    | `First -> blk * block_size
    | `Uniform -> (blk * block_size) + Rng.int rng block_size
    | `Sequential ->
        let c = cursor.(blk) in
        cursor.(blk) <- (c + 1) mod block_size;
        (blk * block_size) + c
  in
  Trace.make (umap block_size)
    (Array.init n (fun _ -> pick_item perm.(Zipf.sample z rng)))

let spatial_mix rng ~n ~universe ~block_size ~p_spatial =
  check_pos "spatial_mix: universe" universe;
  if p_spatial < 0.0 || p_spatial > 1.0 then
    invalid_arg "Generators.spatial_mix: p_spatial out of [0,1]";
  let requests = Array.make n 0 in
  let current = ref (Rng.int rng universe) in
  for i = 0 to n - 1 do
    let next =
      if float_of_int (Rng.bits53 rng) /. 0x1p53 < p_spatial then begin
        let blk = !current / block_size in
        let base = blk * block_size in
        let limit = min block_size (universe - base) in
        base + Rng.int rng limit
      end
      else Rng.int rng universe
    in
    requests.(i) <- next;
    current := next
  done;
  Trace.make (umap block_size) requests

let working_set_phases rng ~block_size ~phases =
  let total = List.fold_left (fun acc (_, len) -> acc + len) 0 phases in
  let requests = Array.make total 0 in
  let pos = ref 0 in
  let base = ref 0 in
  List.iter
    (fun (ws, len) ->
      check_pos "working_set_phases: working set" ws;
      for _ = 1 to len do
        requests.(!pos) <- !base + Rng.int rng ws;
        incr pos
      done;
      base := !base + ws)
    phases;
  Trace.make (umap block_size) requests

let block_scan ~n_blocks ~repeats ~block_size =
  check_pos "block_scan: n_blocks" n_blocks;
  check_pos "block_scan: repeats" repeats;
  let per_block = block_size * repeats in
  let requests =
    Array.init (n_blocks * per_block) (fun i ->
        let blk = i / per_block in
        let off = i mod per_block mod block_size in
        (blk * block_size) + off)
  in
  Trace.make (umap block_size) requests

let interleave a b =
  if Block_map.block_size a.Trace.blocks <> Block_map.block_size b.Trace.blocks
  then invalid_arg "Generators.interleave: block size mismatch";
  let la = Trace.length a and lb = Trace.length b in
  let requests = Array.make (la + lb) 0 in
  let ia = ref 0 and ib = ref 0 and pos = ref 0 in
  while !ia < la || !ib < lb do
    if !ia < la then begin
      requests.(!pos) <- Trace.get a !ia;
      incr ia;
      incr pos
    end;
    if !ib < lb then begin
      requests.(!pos) <- Trace.get b !ib;
      incr ib;
      incr pos
    end
  done;
  Trace.make a.Trace.blocks requests

let concat_phases = Trace.concat

let pointer_chase rng ~n ~universe ~block_size =
  check_pos "pointer_chase: universe" universe;
  let perm = Array.init universe (fun i -> i) in
  Rng.shuffle rng perm;
  Trace.make (umap block_size) (Array.init n (fun i -> perm.(i mod universe)))

let markov rng ~n ~universe ~block_size ~p_switch =
  check_pos "markov: universe" universe;
  if p_switch < 0.0 || p_switch > 1.0 then
    invalid_arg "Generators.markov: p_switch out of [0,1]";
  let requests = Array.make n 0 in
  let streaming = ref true in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    if float_of_int (Rng.bits53 rng) /. 0x1p53 < p_switch then begin
      streaming := not !streaming;
      if !streaming then cursor := Rng.int rng universe
    end;
    if !streaming then begin
      requests.(i) <- !cursor;
      cursor := (!cursor + 1) mod universe
    end
    else requests.(i) <- Rng.int rng universe
  done;
  Trace.make (umap block_size) requests
