module Strategy = struct
  type t = {
    freq : (int, int) Hashtbl.t;  (* item -> access count *)
    buckets : (int, Lru_core.t) Hashtbl.t;  (* count -> recency list *)
    mutable min_freq : int;
    mutable count : int;
  }

  type config = unit

  let name = "lfu"

  let create () =
    { freq = Hashtbl.create 256; buckets = Hashtbl.create 64; min_freq = 1; count = 0 }

  let mem t x = Hashtbl.mem t.freq x
  let size t = t.count

  let bucket t f =
    match Hashtbl.find_opt t.buckets f with
    | Some b -> b
    | None ->
        let b = Lru_core.create () in
        Hashtbl.add t.buckets f b;
        b

  let promote t x f =
    let b = bucket t f in
    Lru_core.remove b x;
    if Lru_core.size b = 0 then Hashtbl.remove t.buckets f;
    Hashtbl.replace t.freq x (f + 1);
    Lru_core.touch (bucket t (f + 1)) x;
    if t.min_freq = f && not (Hashtbl.mem t.buckets f) then
      t.min_freq <- f + 1

  let hit t x =
    match Hashtbl.find t.freq x with
    | f ->
        promote t x f;
        true
    | exception Not_found -> false

  let insert t x =
    Hashtbl.replace t.freq x 1;
    Lru_core.touch (bucket t 1) x;
    t.min_freq <- 1;
    t.count <- t.count + 1

  let pop_victim t =
    (* min_freq can lag when the minimum bucket drained via eviction; scan
       upward (amortized O(1) because it only moves forward between
       resets to 1). *)
    while not (Hashtbl.mem t.buckets t.min_freq) do
      t.min_freq <- t.min_freq + 1
    done;
    let b = Hashtbl.find t.buckets t.min_freq in
    let v = Lru_core.pop_lru b in
    if Lru_core.size b = 0 then Hashtbl.remove t.buckets t.min_freq;
    Hashtbl.remove t.freq v;
    t.count <- t.count - 1;
    v
end

module M = Item_policy.Make (Strategy)

let create ~k = M.create ~k ()
