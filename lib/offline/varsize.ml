type instance = {
  sizes : int array;
  capacity : int;
  requests : int array;
}

let validate t =
  let m = Array.length t.sizes in
  if m = 0 then invalid_arg "Varsize: no items";
  Array.iter (fun s -> if s < 1 then invalid_arg "Varsize: size < 1") t.sizes;
  if t.capacity < 1 then invalid_arg "Varsize: capacity < 1";
  Array.iter
    (fun r ->
      if r < 0 || r >= m then invalid_arg "Varsize: request out of range";
      if t.sizes.(r) > t.capacity then
        invalid_arg "Varsize: requested item larger than the cache")
    t.requests

(* Memo-table cap, as in [Exact_gc]. *)
let max_states = 5_000_000

let exact t =
  validate t;
  let m = Array.length t.sizes in
  if m > 30 then invalid_arg "Varsize.exact: more than 30 items";
  let total_size mask =
    let acc = ref 0 in
    for v = 0 to m - 1 do
      if mask land (1 lsl v) <> 0 then acc := !acc + t.sizes.(v)
    done;
    !acc
  in
  (* Enumerate all subsets of [mask]. *)
  let all_subsets mask =
    let rec go sub acc =
      let acc = sub :: acc in
      if sub = 0 then acc else go ((sub - 1) land mask) acc
    in
    go mask []
  in
  let n = Array.length t.requests in
  let memo : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let rec go pos cache =
    if pos = n then 0
    else begin
      let r = t.requests.(pos) in
      let rbit = 1 lsl r in
      if cache land rbit <> 0 then go (pos + 1) cache
      else begin
        match Hashtbl.find_opt memo (pos, cache) with
        | Some v -> v
        | None ->
            if Hashtbl.length memo > max_states then
              failwith "Varsize.exact: state budget exceeded";
            let best = ref max_int in
            let used = total_size cache in
            List.iter
              (fun evict ->
                let cache' = cache land lnot evict in
                let used' = used - total_size evict in
                if used' + t.sizes.(r) <= t.capacity then begin
                  let cost = 1 + go (pos + 1) (cache' lor rbit) in
                  if cost < !best then best := cost
                end)
              (all_subsets cache);
            Hashtbl.add memo (pos, cache) !best;
            !best
      end
    end
  in
  go 0 0

let random_instance rng ~n_items ~max_size ~capacity ~length =
  let sizes =
    Array.init n_items (fun _ ->
        min capacity (1 + Gc_trace.Rng.int rng max_size))
  in
  let requests = Array.init length (fun _ -> Gc_trace.Rng.int rng n_items) in
  { sizes; capacity; requests }
