let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

(* All subsets of the bits in [mask] with exactly [size] bits set. *)
let subsets_of_size mask size =
  let bits =
    let rec collect m acc =
      if m = 0 then acc
      else begin
        let low = m land -m in
        collect (m lxor low) (low :: acc)
      end
    in
    collect mask []
  in
  let out = ref [] in
  let rec choose chosen remaining need =
    if need = 0 then out := chosen :: !out
    else
      match remaining with
      | [] -> ()
      | bit :: rest ->
          if List.length remaining >= need then begin
            choose (chosen lor bit) rest (need - 1);
            choose chosen rest need
          end
  in
  choose 0 bits size;
  !out

(* All subsets of [mask] (used for load choices within a block). *)
let all_subsets mask =
  let rec go sub acc =
    let acc = sub :: acc in
    if sub = 0 then acc else go ((sub - 1) land mask) acc
  in
  go mask []

(* Memo-table cap: offline GC caching is NP-complete, so the search fails
   rather than exhaust memory. *)
let max_states = 5_000_000

(* Shared solver core: returns the memo table plus the dense encoding so
   [solve_schedule] can reconstruct an optimal schedule. *)
let solve_core ~k trace =
  let universe = Gc_trace.Trace.universe trace in
  let u = Array.length universe in
  if u > 62 then invalid_arg "Exact_gc.solve: more than 62 distinct items";
  let dense = Hashtbl.create (2 * u) in
  Array.iteri (fun idx item -> Hashtbl.add dense item idx) universe;
  let blocks = trace.Gc_trace.Trace.blocks in
  (* Per dense item: mask of same-block items that appear in the trace. *)
  let block_mask =
    Array.map
      (fun item ->
        let blk = Gc_trace.Block_map.block_of blocks item in
        Array.fold_left
          (fun acc other ->
            if Gc_trace.Block_map.block_of blocks other = blk then
              acc lor (1 lsl Hashtbl.find dense other)
            else acc)
          0 universe)
      universe
  in
  let n = Gc_trace.Trace.length trace in
  let requests =
    Array.init n (fun pos -> Hashtbl.find dense (Gc_trace.Trace.get trace pos))
  in
  let memo : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let rec go pos cache =
    if pos = n then 0
    else begin
      let r = requests.(pos) in
      let rbit = 1 lsl r in
      if cache land rbit <> 0 then go (pos + 1) cache
      else begin
        match Hashtbl.find_opt memo (pos, cache) with
        | Some v -> v
        | None ->
            if Hashtbl.length memo > max_states then
              failwith "Exact_gc.solve: state budget exceeded";
            let best = ref max_int in
            (* Choose which block-mates to load alongside r... *)
            let optional = block_mask.(r) land lnot cache land lnot rbit in
            List.iter
              (fun extra ->
                let load = extra lor rbit in
                let loaded_count = popcount load in
                let occupied = popcount cache in
                let over = occupied + loaded_count - k in
                if loaded_count <= k then begin
                  (* ... and, if over capacity, which cached items to evict
                     (exactly [over]: evicting more never helps). *)
                  let evict_sets =
                    if over <= 0 then [ 0 ] else subsets_of_size cache over
                  in
                  List.iter
                    (fun evict ->
                      let cache' = (cache land lnot evict) lor load in
                      let cost = 1 + go (pos + 1) cache' in
                      if cost < !best then best := cost)
                    evict_sets
                end)
              (all_subsets optional);
            Hashtbl.add memo (pos, cache) !best;
            !best
      end
    end
  in
  if k < 1 then invalid_arg "Exact_gc.solve: k must be >= 1";
  let cost = go 0 0 in
  (cost, memo, universe, block_mask, requests)

let solve ~k trace =
  let cost, _, _, _, _ = solve_core ~k trace in
  cost

let solve_schedule ~k trace =
  let total, memo, universe, block_mask, requests = solve_core ~k trace in
  let n = Array.length requests in
  let cost_of pos cache =
    if pos = n then Some 0
    else begin
      let r = requests.(pos) in
      if cache land (1 lsl r) <> 0 then None (* hits handled separately *)
      else Hashtbl.find_opt memo (pos, cache)
    end
  in
  (* Cheapest completion from (pos, cache); hits recurse transparently. *)
  let rec value pos cache =
    if pos = n then 0
    else begin
      let r = requests.(pos) in
      if cache land (1 lsl r) <> 0 then value (pos + 1) cache
      else
        match cost_of pos cache with
        | Some v -> v
        | None -> failwith "Exact_gc.solve_schedule: state missing from memo"
    end
  in
  let items_of_mask mask =
    let out = ref [] in
    Array.iteri
      (fun idx item -> if mask land (1 lsl idx) <> 0 then out := item :: !out)
      universe;
    List.rev !out
  in
  let actions = Array.make n { Schedule.load = []; evict = [] } in
  let cache = ref 0 in
  for pos = 0 to n - 1 do
    let r = requests.(pos) in
    let rbit = 1 lsl r in
    if !cache land rbit <> 0 then
      actions.(pos) <- { Schedule.load = []; evict = [] }
    else begin
      let target = value pos !cache in
      (* Re-enumerate this state's choices and take one achieving the memo
         value. *)
      let optional = block_mask.(r) land lnot !cache land lnot rbit in
      let found = ref false in
      List.iter
        (fun extra ->
          if not !found then begin
            let load = extra lor rbit in
            let loaded_count = popcount load in
            let occupied = popcount !cache in
            let over = occupied + loaded_count - k in
            if loaded_count <= k then begin
              let evict_sets =
                if over <= 0 then [ 0 ] else subsets_of_size !cache over
              in
              List.iter
                (fun evict ->
                  if not !found then begin
                    let cache' = (!cache land lnot evict) lor load in
                    if 1 + value (pos + 1) cache' = target then begin
                      found := true;
                      actions.(pos) <-
                        {
                          Schedule.load = items_of_mask load;
                          evict = items_of_mask evict;
                        };
                      cache := cache'
                    end
                  end)
                evict_sets
            end
          end)
        (all_subsets optional);
      if not !found then
        failwith "Exact_gc.solve_schedule: reconstruction failed"
    end
  done;
  (total, actions)
