module Strategy = struct
  type t = Lru_core.t
  type config = unit

  let name = "lru"
  let create () = Lru_core.create ()
  let mem = Lru_core.mem
  let size = Lru_core.size
  let hit = Lru_core.refresh
  let insert = Lru_core.add

  let pop_victim = Lru_core.pop_lru
end

module M = Item_policy.Make (Strategy)

let create ~k = M.create ~k ()
