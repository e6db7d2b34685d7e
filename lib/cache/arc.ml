(* Standard ARC: T1 (recent), T2 (frequent), with ghost lists B1, B2 of
   evicted keys.  |T1| + |T2| <= k; |T1| + |B1| <= k; total directory
   |T1|+|T2|+|B1|+|B2| <= 2k.  The target size p of T1 adapts on ghost
   hits.  Follows the ARC paper's REPLACE/Case I-IV structure. *)

module P = struct
  type t = {
    k : int;
    t1 : Lru_core.t;
    t2 : Lru_core.t;
    b1 : Lru_core.t;  (* ghosts: keys only, no data *)
    b2 : Lru_core.t;
    mutable p : int;  (* target size of t1, in [0, k] *)
  }

  let name = "arc"
  let k t = t.k
  let mem t x = Lru_core.mem t.t1 x || Lru_core.mem t.t2 x
  let occupancy t = Lru_core.size t.t1 + Lru_core.size t.t2

  (* Evict from T1 or T2 per the adaptation target; the victim's key moves
     to the corresponding ghost list.  [prefer_t1] breaks the tie ARC uses
     in case II (hit in B2). *)
  let replace t ~in_b2 =
    let t1_size = Lru_core.size t.t1 in
    let from_t1 =
      t1_size >= 1 && (t1_size > t.p || (in_b2 && t1_size = t.p))
    in
    (* From T1 when the target says so, or when T2 is empty. *)
    if from_t1 || Lru_core.size t.t2 = 0 then begin
      let v = Lru_core.pop_lru t.t1 in
      Lru_core.touch t.b1 v;
      v
    end
    else begin
      let v = Lru_core.pop_lru t.t2 in
      Lru_core.touch t.b2 v;
      v
    end

  let access t x =
    if Lru_core.mem t.t1 x then begin
      (* Case I: hit in T1 -> promote to T2. *)
      Lru_core.remove t.t1 x;
      Lru_core.touch t.t2 x;
      Policy.Hit { evicted = [] }
    end
    else if Lru_core.refresh t.t2 x then Policy.Hit { evicted = [] }
    else begin
      let evicted = ref [] in
      if Lru_core.mem t.b1 x then begin
        (* Case II: ghost hit in B1 -> grow T1's target. *)
        let delta =
          max 1 (Lru_core.size t.b2 / max 1 (Lru_core.size t.b1))
        in
        t.p <- min t.k (t.p + delta);
        if occupancy t >= t.k then evicted := [ replace t ~in_b2:false ];
        Lru_core.remove t.b1 x;
        Lru_core.touch t.t2 x
      end
      else if Lru_core.mem t.b2 x then begin
        (* Case III: ghost hit in B2 -> grow T2's target. *)
        let delta =
          max 1 (Lru_core.size t.b1 / max 1 (Lru_core.size t.b2))
        in
        t.p <- max 0 (t.p - delta);
        if occupancy t >= t.k then evicted := [ replace t ~in_b2:true ];
        Lru_core.remove t.b2 x;
        Lru_core.touch t.t2 x
      end
      else begin
        (* Case IV: cold miss. *)
        let l1 = Lru_core.size t.t1 + Lru_core.size t.b1 in
        if l1 = t.k then begin
          if Lru_core.size t.t1 < t.k then begin
            ignore (Lru_core.pop_lru t.b1);
            evicted := [ replace t ~in_b2:false ]
          end
          else
            (* B1 empty, T1 full: evict T1's LRU outright. *)
            evicted := [ Lru_core.pop_lru t.t1 ]
        end
        else begin
          let total =
            l1 + Lru_core.size t.t2 + Lru_core.size t.b2
          in
          if total >= t.k then begin
            if total = 2 * t.k then ignore (Lru_core.pop_lru t.b2);
            if occupancy t >= t.k then
              evicted := [ replace t ~in_b2:false ]
          end
        end;
        Lru_core.touch t.t1 x
      end;
      Policy.Miss { loaded = [ x ]; evicted = !evicted }
    end
end

let create ~k =
  if k < 2 then invalid_arg "Arc.create: k must be >= 2";
  Policy.Instance
    ( (module P),
      {
        P.k;
        t1 = Lru_core.create ();
        t2 = Lru_core.create ();
        b1 = Lru_core.create ();
        b2 = Lru_core.create ();
        p = 0;
      } )
