module IntMap = Map.Make (Int)

type t = { must : int IntMap.t; may : int IntMap.t }

let init = { must = IntMap.empty; may = IntMap.empty }

let equal d1 d2 =
  IntMap.equal Int.equal d1.must d2.must
  && IntMap.equal Int.equal d1.may d2.may

(* d1 at least as precise as d2: d2's must guarantees are a subset (with
   looser bounds), d2's may possibilities are a superset (with tighter-
   or-equal lower bounds from below, i.e. smaller). *)
let leq d1 d2 =
  IntMap.for_all
    (fun y ub2 ->
      match IntMap.find_opt y d1.must with
      | Some ub1 -> ub1 <= ub2
      | None -> false)
    d2.must
  && IntMap.for_all
       (fun y lb1 ->
         match IntMap.find_opt y d2.may with
         | Some lb2 -> lb2 <= lb1
         | None -> false)
       d1.may

let join d1 d2 =
  {
    must =
      IntMap.merge
        (fun _ a b ->
          match (a, b) with Some x, Some y -> Some (max x y) | _ -> None)
        d1.must d2.must;
    may =
      IntMap.union (fun _ x y -> Some (min x y)) d1.may d2.may;
  }

let widen old next =
  {
    must =
      IntMap.merge
        (fun _ a b ->
          match (a, b) with
          | Some x, Some y when y <= x -> Some x
          | _ -> None)
        old.must next.must;
    may =
      IntMap.merge
        (fun _ a b ->
          match (a, b) with
          | Some x, Some y -> Some (if y < x then 0 else x)
          | Some x, None -> Some x
          | None, Some _ -> Some 0
          | None, None -> None)
        old.may next.may;
  }

let transfer ?(unsound = false) (cfg : Cache_model.config) d x =
  let s = Cache_model.set_of cfg x in
  let same_set y = Cache_model.set_of cfg y = s in
  let must =
    if unsound then IntMap.add x 0 d.must
    else
      (* Items provably younger than x age by one; x's own upper bound
         (ways if absent) caps how deep the reshuffle can reach. *)
      let ub_x =
        match IntMap.find_opt x d.must with
        | Some a -> a
        | None -> cfg.ways
      in
      IntMap.fold
        (fun y a acc ->
          if y = x then acc (* already x |-> 0 *)
          else if not (same_set y) then IntMap.add y a acc
          else if a < ub_x then
            if a + 1 >= cfg.ways then acc else IntMap.add y (a + 1) acc
          else IntMap.add y a acc)
        d.must (IntMap.singleton x 0)
  in
  let may =
    (* Lower bounds only grow on a definite miss, when every concrete
       state demotes every resident of the set. *)
    let definite_miss = not (IntMap.mem x d.may) in
    IntMap.fold
      (fun y a acc ->
        if y = x then acc (* already x |-> 0 *)
        else if not (same_set y) then IntMap.add y a acc
        else if definite_miss then
          if a + 1 >= cfg.ways then acc else IntMap.add y (a + 1) acc
        else IntMap.add y a acc)
      d.may (IntMap.singleton x 0)
  in
  { must; may }

let classify d x =
  if IntMap.mem x d.must then Report.Always_hit
  else if not (IntMap.mem x d.may) then Report.Always_miss
  else Report.Unknown

let must_age d x = IntMap.find_opt x d.must
let concretizes (cfg : Cache_model.config) d (st : Cache_model.state) =
  let age_of y =
    match st.(Cache_model.set_of cfg y) with
    | Cache_model.Lru_s xs ->
        let rec idx i = function
          | [] -> None
          | z :: _ when z = y -> Some i
          | _ :: rest -> idx (i + 1) rest
        in
        idx 0 xs
    | _ -> None
  in
  let lru_only =
    Array.for_all
      (function Cache_model.Lru_s _ -> true | _ -> false)
      st
  in
  lru_only
  && IntMap.for_all
       (fun y ub -> match age_of y with Some a -> a <= ub | None -> false)
       d.must
  && Array.for_all
       (fun set_st ->
         List.for_all
           (fun y ->
             match (IntMap.find_opt y d.may, age_of y) with
             | Some lb, Some a -> lb <= a
             | _, _ -> false)
           (Cache_model.items set_st))
       st
