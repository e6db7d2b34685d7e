module P = struct
  type t = {
    k : int;
    small_cap : int;
    small : Lru_core.t;  (* FIFO: insert_if_absent, no touch *)
    main : Lru_core.t;
    ghost : Lru_core.t;
    freq : (int, int) Hashtbl.t;  (* capped access count per cached item *)
  }

  let name = "s3-fifo"
  let k t = t.k
  let mem t x = Lru_core.mem t.small x || Lru_core.mem t.main x
  let occupancy t = Lru_core.size t.small + Lru_core.size t.main

  let bump t x =
    let c = Option.value ~default:0 (Hashtbl.find_opt t.freq x) in
    Hashtbl.replace t.freq x (min 3 (c + 1))

  (* Evict one item, honouring lazy promotion/demotion; returns the item
     that actually left the cache. *)
  let rec evict_one t =
    if Lru_core.size t.small >= t.small_cap then begin
      let v = Lru_core.pop_lru t.small in
      if Option.value ~default:0 (Hashtbl.find_opt t.freq v) > 0 then begin
        (* Referenced while probationary: promote to main. *)
        Hashtbl.replace t.freq v 0;
        Lru_core.insert_if_absent t.main v;
        evict_one t
      end
      else begin
        Hashtbl.remove t.freq v;
        Lru_core.touch t.ghost v;
        while Lru_core.size t.ghost > t.k do
          ignore (Lru_core.pop_lru t.ghost)
        done;
        v
      end
    end
    else if Lru_core.size t.main = 0 then begin
      (* Main empty: fall back to small unconditionally. *)
      let v = Lru_core.pop_lru t.small in
      Hashtbl.remove t.freq v;
      v
    end
    else begin
      let v = Lru_core.pop_lru t.main in
      let c = Option.value ~default:0 (Hashtbl.find_opt t.freq v) in
      if c > 0 then begin
        (* Second chance, decayed: back in at the MRU end. *)
        Hashtbl.replace t.freq v (c - 1);
        Lru_core.touch t.main v;
        evict_one t
      end
      else begin
        Hashtbl.remove t.freq v;
        v
      end
    end

  let access t x =
    if mem t x then begin
      bump t x;
      Policy.Hit { evicted = [] }
    end
    else begin
      let evicted = ref [] in
      if occupancy t >= t.k then evicted := [ evict_one t ];
      if Lru_core.mem t.ghost x then begin
        (* Recently rejected: skip probation. *)
        Lru_core.remove t.ghost x;
        Lru_core.insert_if_absent t.main x
      end
      else Lru_core.insert_if_absent t.small x;
      Hashtbl.replace t.freq x 0;
      Policy.Miss { loaded = [ x ]; evicted = !evicted }
    end
end

let create ~k =
  if k < 2 then invalid_arg "S3_fifo.create: k must be >= 2";
  Policy.Instance
    ( (module P),
      {
        P.k;
        small_cap = max 1 (k / 10);
        small = Lru_core.create ();
        main = Lru_core.create ();
        ghost = Lru_core.create ();
        freq = Hashtbl.create 256;
      } )
