module P = struct
  type t = {
    k : int;
    depth : int;
    cached : (int, unit) Hashtbl.t;
    (* Reference timestamps per item, most recent first, length <= depth. *)
    refs : (int, int list) Hashtbl.t;
    ghost : Lru_core.t;  (* uncached items whose history is retained *)
    mutable clock : int;
  }

  let name = "lru-k"
  let k t = t.k
  let mem t x = Hashtbl.mem t.cached x
  let occupancy t = Hashtbl.length t.cached

  let record_reference t x =
    t.clock <- t.clock + 1;
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.refs x) in
    let trimmed =
      if List.length prev >= t.depth then
        List.filteri (fun idx _ -> idx < t.depth - 1) prev
      else prev
    in
    Hashtbl.replace t.refs x (t.clock :: trimmed)

  (* Backward-K distance: the K-th most recent reference time, or
     min_int when the item has fewer than K references. *)
  let kth_reference t x =
    match Hashtbl.find_opt t.refs x with
    | Some times -> (
        match List.nth_opt times (t.depth - 1) with
        | Some time -> time
        | None -> min_int)
    | None -> min_int

  let victim t =
    (* Linear scan over the cached set: oldest K-th reference loses, ties
       broken by oldest most-recent reference.  O(k) per miss - acceptable
       for a reference implementation of a history policy. *)
    let best = ref None in
    Hashtbl.iter
      (fun x () ->
        let key =
          ( kth_reference t x,
            match Hashtbl.find_opt t.refs x with
            | Some (most_recent :: _) -> most_recent
            | _ -> min_int )
        in
        match !best with
        | None -> best := Some (key, x)
        | Some (best_key, _) -> if key < best_key then best := Some (key, x))
      t.cached;
    match !best with Some (_, x) -> x | None -> assert false

  (* Evicted items keep their history while among the last [k] evicted. *)
  let forget_ghosts t =
    while Lru_core.size t.ghost > t.k do
      Hashtbl.remove t.refs (Lru_core.pop_lru t.ghost)
    done

  let access t x =
    record_reference t x;
    if Hashtbl.mem t.cached x then Policy.Hit { evicted = [] }
    else begin
      Lru_core.remove t.ghost x;
      let evicted = ref [] in
      if Hashtbl.length t.cached >= t.k then begin
        let v = victim t in
        Hashtbl.remove t.cached v;
        Lru_core.touch t.ghost v;
        evicted := [ v ]
      end;
      Hashtbl.add t.cached x ();
      forget_ghosts t;
      Policy.Miss { loaded = [ x ]; evicted = !evicted }
    end
end

let create ~k ~depth =
  if k < 1 then invalid_arg "Lru_k.create: k must be >= 1";
  if depth < 1 then invalid_arg "Lru_k.create: depth must be >= 1";
  Policy.Instance
    ( (module P),
      {
        P.k;
        depth;
        cached = Hashtbl.create 256;
        refs = Hashtbl.create 512;
        ghost = Lru_core.create ();
        clock = 0;
      } )
