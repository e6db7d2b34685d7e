module P = struct
  type t = {
    k : int;
    in_cap : int;  (* A1in capacity; Am gets the rest *)
    out_cap : int;  (* ghost capacity *)
    a1in : Lru_core.t;  (* FIFO: no touch on hit *)
    a1out : Lru_core.t;  (* ghost keys *)
    am : Lru_core.t;  (* main LRU *)
  }

  let name = "2q"
  let k t = t.k
  let mem t x = Lru_core.mem t.a1in x || Lru_core.mem t.am x
  let occupancy t = Lru_core.size t.a1in + Lru_core.size t.am

  (* Make room for one incoming item, per the 2Q reclaim rule. *)
  let reclaim t =
    if Lru_core.size t.a1in >= t.in_cap then begin
      let v = Lru_core.pop_lru t.a1in in
      Lru_core.touch t.a1out v;
      if Lru_core.size t.a1out > t.out_cap then
        ignore (Lru_core.pop_lru t.a1out);
      v
    end
    else if Lru_core.size t.am > 0 then Lru_core.pop_lru t.am
    else Lru_core.pop_lru t.a1in

  let access t x =
    if Lru_core.refresh t.am x then Policy.Hit { evicted = [] }
    else if Lru_core.mem t.a1in x then
      (* Hit in the admission queue: 2Q leaves it in place (FIFO). *)
      Policy.Hit { evicted = [] }
    else begin
      let evicted = ref [] in
      if occupancy t >= t.k then evicted := [ reclaim t ];
      if Lru_core.mem t.a1out x then begin
        (* Re-reference after eviction from A1in: promote to Am. *)
        Lru_core.remove t.a1out x;
        Lru_core.touch t.am x
      end
      else Lru_core.insert_if_absent t.a1in x;
      Policy.Miss { loaded = [ x ]; evicted = !evicted }
    end
end

let create ~k =
  if k < 2 then invalid_arg "Two_q.create: k must be >= 2";
  Policy.Instance
    ( (module P),
      {
        P.k;
        in_cap = max 1 (k / 4);
        out_cap = max 1 (k / 2);
        a1in = Lru_core.create ();
        a1out = Lru_core.create ();
        am = Lru_core.create ();
      } )
