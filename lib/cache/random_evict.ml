module Strategy = struct
  type t = { set : Index_set.t; rng : Gc_trace.Rng.t }
  type config = Gc_trace.Rng.t

  let name = "random"
  let create rng = { set = Index_set.create (); rng }
  let mem t = Index_set.mem t.set
  let size t = Index_set.size t.set
  let hit = mem
  let insert t x = Index_set.add t.set x

  let pop_victim t =
    let v = Index_set.random t.set t.rng in
    Index_set.remove t.set v;
    v
end

module M = Item_policy.Make (Strategy)

let create ~k ~rng = M.create ~k rng
